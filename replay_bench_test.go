package vcomputebench_test

import (
	"fmt"
	"testing"

	"vcomputebench/internal/codeversion"
	"vcomputebench/internal/core"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/report"
)

// Per-layer benchmarks of the warm replay path, tracked in BENCH_replay.json
// (`make bench-replay`). A warm run answers each cell with a store read (from
// memory, or from disk: file read, CRC, snapshot and trace decode) followed
// by an analytic replay, and serve encodes the replayed Result as its answer;
// these benchmarks time the layers one by one on two real recorded cells, so
// a change to the trace layout, the codec, the replay or the encoding shows
// in the layer it touches.
//
// The cells are gaussian 448 through OpenCL, the largest entry a cold
// `-run all -reps 1` stores, and backprop 64K through Vulkan, a median-sized
// one; both on the GTX 1050 Ti.

// replayBenchCell names one recorded cell.
type replayBenchCell struct {
	name      string
	benchmark string
	workload  string
	api       hw.API
}

var replayBenchCells = []replayBenchCell{
	{"gaussian_448_opencl", "gaussian", "448", hw.APIOpenCL},
	{"backprop_64K_vulkan", "backprop", "64K", hw.APIVulkan},
}

// recordedCell is one cell executed once into a disk store, ready to be read
// back: its key, its snapshot and the snapshot's encoding.
type recordedCell struct {
	replayBenchCell
	key  core.SnapshotKey
	snap *core.Snapshot
	blob []byte
}

// recordReplayBenchCells executes every benchmark cell once into a fresh
// disk store under the build's code version, as `vcbench -store DIR -reps 1`
// does, and reads each entry back.
func recordReplayBenchCells(b *testing.B, p *platforms.Platform) (*core.DiskStore, []recordedCell) {
	b.Helper()
	disk, err := core.OpenDiskStore(b.TempDir(), codeversion.Fingerprint(), nil)
	if err != nil {
		b.Fatal(err)
	}
	r := &core.Runner{Repetitions: 1, Seed: 42, Cache: disk}
	cells := make([]recordedCell, 0, len(replayBenchCells))
	for _, c := range replayBenchCells {
		bench, err := core.Get(c.benchmark)
		if err != nil {
			b.Fatal(err)
		}
		var w core.Workload
		for _, cand := range bench.Workloads(p.Profile.Class) {
			if cand.Label == c.workload {
				w = cand
			}
		}
		if w.Label == "" {
			b.Fatalf("%s has no workload %q on %s", c.benchmark, c.workload, p.ID)
		}
		if _, err := r.Run(p, bench, c.api, w); err != nil {
			b.Fatalf("recording %s: %v", c.name, err)
		}
		key := r.CellKey(p, bench, c.api, w)
		snap, ok := disk.Get(key)
		if !ok {
			b.Fatalf("%s was not stored", c.name)
		}
		blob, err := core.EncodeSnapshot(snap)
		if err != nil {
			b.Fatal(err)
		}
		cells = append(cells, recordedCell{replayBenchCell: c, key: key, snap: snap, blob: blob})
	}
	return disk, cells
}

// Sinks keep the compiler from discarding the measured calls.
var (
	replayBenchSnap   *core.Snapshot
	replayBenchResult *core.Result
	replayBenchBody   []byte
)

// BenchmarkReplayPath times the layers of a warm cell: DiskStoreGet is the
// whole disk-tier read (file, envelope CRC, decode), MemoryStoreGet a hit in
// the in-memory tier, DecodeSnapshot the snapshot and trace decode alone,
// TraceReplay the hw replay of the trace alone (every event stepped, no
// reading valued, no Result built), SnapshotReplay the analytic replay of a
// decoded snapshot under the recording platform into a Result, and
// EncodeWire the encoding of that Result as serve's one-result answer.
func BenchmarkReplayPath(b *testing.B) {
	p, err := platforms.ByID(platforms.IDGTX1050Ti)
	if err != nil {
		b.Fatal(err)
	}
	disk, cells := recordReplayBenchCells(b, p)
	for _, c := range cells {
		c := c
		b.Run(c.name+"/DiskStoreGet", func(b *testing.B) {
			b.ReportMetric(float64(len(c.blob)), "snapshot-bytes")
			for i := 0; i < b.N; i++ {
				snap, ok := disk.Get(c.key)
				if !ok {
					b.Fatal("disk store missed a recorded cell")
				}
				replayBenchSnap = snap
			}
		})
		b.Run(c.name+"/MemoryStoreGet", func(b *testing.B) {
			mem := core.NewSnapshotCache(0)
			mem.Put(c.key, c.snap)
			for i := 0; i < b.N; i++ {
				snap, ok := mem.Get(c.key)
				if !ok {
					b.Fatal("memory store missed a stored cell")
				}
				replayBenchSnap = snap
			}
		})
		b.Run(c.name+"/DecodeSnapshot", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				snap, err := core.DecodeSnapshot(c.blob, nil)
				if err != nil {
					b.Fatal(err)
				}
				replayBenchSnap = snap
			}
		})
		b.Run(c.name+"/TraceReplay", func(b *testing.B) {
			tr := c.snap.Trace()
			for i := 0; i < b.N; i++ {
				if err := tr.ReplayReadings(&p.Profile, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/SnapshotReplay", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := c.snap.Replay(p)
				if err != nil {
					b.Fatal(err)
				}
				replayBenchResult = res
			}
		})
		b.Run(c.name+"/EncodeWire", func(b *testing.B) {
			res, err := c.snap.Replay(p)
			if err != nil {
				b.Fatal(err)
			}
			doc := &report.Document{
				ID:      "simulate",
				Title:   fmt.Sprintf("%s/%s on %s (%s)", c.benchmark, c.api, p.ID, c.workload),
				Results: []*core.Result{res},
			}
			for i := 0; i < b.N; i++ {
				body, err := report.EncodeWire([]*report.Document{doc}, nil)
				if err != nil {
					b.Fatal(err)
				}
				replayBenchBody = body
			}
		})
	}
}
