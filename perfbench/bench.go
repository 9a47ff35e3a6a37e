package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// commandTimeout bounds one vcbench command; the longest, the cold -run all
// that builds the warm store, takes 35 to 95 s on two cores.
const commandTimeout = 170 * time.Second

// setupSamples is how many set-up probes a run times.
const setupSamples = 31

// The cold workloads each reproduce one paper figure into an empty store, so
// that a run holds several passes: a cold -run all takes 35 to 95 s on two
// cores. Between them they execute every front end. fig4b runs every Rodinia
// benchmark through OpenCL and Vulkan on the Snapdragon 625 (34 cells, 2 to
// 3 s a pass on two cores); fig1a runs the bandwidth sweep through OpenCL,
// Vulkan and CUDA on the GTX 1050 Ti (18 cells, about 2 s). fig2a, the one
// figure that runs Rodinia through all three, takes about 25 s cold.
var (
	storeArgs = []string{"-run", "all", "-reps", "1", "-format", "json", "-o", "out", "-store", "store"}
	checkArgs = []string{"-check", "all", "-reps", "1", "-store", "store", "-cache-stats"}
	setupArgs = []string{"-run", "table1", "-reps", "1", "-format", "json", "-o", "out", "-store", "store"}
)

// bench is one run's view of the checkout: the built vcbench binary, the
// golden documents, the warm store, and a scratch directory removed when the
// run ends.
type bench struct {
	build, vcbench string
	goldenDir      string
	codeVersion    string
	goldens        map[string][]byte // file name -> golden document
	warm           string
	work           string
	nscratch       int
	speed          *speedometer // the current workload's
}

func newBench(root, build string) (*bench, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if build, err = filepath.Abs(build); err != nil {
		return nil, err
	}
	b := &bench{
		build:     build,
		vcbench:   filepath.Join(build, "vcbench"),
		goldenDir: filepath.Join(root, "testdata", "golden"),
		goldens:   map[string][]byte{},
		work:      filepath.Join(build, "work"),
	}
	out, err := exec.Command(b.vcbench, "-code-version").Output()
	if err != nil {
		return nil, fmt.Errorf("vcbench -code-version: %w", err)
	}
	b.codeVersion = strings.TrimSpace(string(out))
	files, err := filepath.Glob(filepath.Join(b.goldenDir, "*.json"))
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		if b.goldens[filepath.Base(f)], err = os.ReadFile(f); err != nil {
			return nil, err
		}
	}
	if len(b.goldens) == 0 {
		return nil, fmt.Errorf("no golden documents under %s", b.goldenDir)
	}
	// Runs are sequential, so whatever an interrupted run left is garbage.
	if err := os.RemoveAll(b.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return nil, err
	}
	// Every run makes sure the warm store exists, so that only the first run
	// in a checkout, which may take longer because it builds, pays for it.
	if b.warm, err = b.warmStore(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *bench) close() { os.RemoveAll(b.work) }

// scratch returns a new empty directory under the run's scratch directory.
func (b *bench) scratch() (string, error) {
	b.nscratch++
	dir := filepath.Join(b.work, strconv.Itoa(b.nscratch))
	return dir, os.MkdirAll(dir, 0o755)
}

// proc is one measured vcbench process.
type proc struct {
	wall, cpu      time.Duration
	rssMB          float64
	stdout, stderr bytes.Buffer
}

// finish records the process's wall time since start, its CPU time and its
// peak RSS.
func (p *proc) finish(start time.Time, ps *os.ProcessState) {
	p.wall = time.Since(start)
	if ps == nil {
		return
	}
	p.cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		p.rssMB = float64(ru.Maxrss) / 1024 // KiB on Linux
	}
}

// command prepares a vcbench command in dir. The process is killed when ctx
// ends or when this process dies first.
func (b *bench) command(ctx context.Context, dir string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, b.vcbench, args...)
	cmd.Dir = dir
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// runVcbench runs one vcbench command in dir, measured from spawn to exit.
func (b *bench) runVcbench(dir string, args ...string) (*proc, error) {
	ctx, cancel := context.WithTimeout(context.Background(), commandTimeout)
	defer cancel()
	cmd := b.command(ctx, dir, args...)
	p := &proc{}
	cmd.Stdout, cmd.Stderr = &p.stdout, &p.stderr
	start := time.Now()
	err := cmd.Run()
	p.finish(start, cmd.ProcessState)
	if err != nil {
		return p, fmt.Errorf("vcbench %s: %v: %s", strings.Join(args, " "), err, lastLine(p.stderr.String()))
	}
	return p, nil
}

// storeStats is the part of vcbench's -cache-stats report the benchmark reads.
type storeStats struct {
	executed, replayed        uint64
	diskBytes, decodeFailures uint64
}

func parseStoreStats(stderr string) (storeStats, error) {
	var s storeStats
	var top, disk bool
	for _, line := range strings.Split(stderr, "\n") {
		var entries, evictions, hits, misses, memBytes, dropped uint64
		var tier string
		switch {
		case strings.HasPrefix(line, "vcbench: snapshot store: "):
			_, err := fmt.Sscanf(line, "vcbench: snapshot store: %d executed (misses), %d replayed (hits), %d entries, %d evictions",
				&s.executed, &s.replayed, &entries, &evictions)
			top = err == nil
		case strings.HasPrefix(line, "vcbench:   disk tier: "):
			_, err := fmt.Sscanf(line, "vcbench:   %s tier: %d hits, %d misses, %d evictions, %d entries, %d bytes, %d decode failures, %d dropped puts",
				&tier, &hits, &misses, &evictions, &entries, &memBytes, &s.decodeFailures, &dropped)
			s.diskBytes = memBytes
			disk = err == nil
		}
	}
	if !top || !disk {
		return s, fmt.Errorf("no -cache-stats report with a disk tier on stderr")
	}
	if s.decodeFailures > 0 {
		return s, fmt.Errorf("%d store entries failed to decode", s.decodeFailures)
	}
	return s, nil
}

// checkDocs byte-compares the documents in dir with their goldens: the named
// ones, or every golden (and nothing else) when none is named.
func (b *bench) checkDocs(dir string, names ...string) error {
	if len(names) == 0 {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		if len(entries) != len(b.goldens) {
			return fmt.Errorf("%d documents written, want the %d goldens", len(entries), len(b.goldens))
		}
		for name := range b.goldens {
			names = append(names, name)
		}
	}
	for _, name := range names {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, b.goldens[name]) {
			return fmt.Errorf("%s differs from testdata/golden/%s", name, name)
		}
	}
	return nil
}

// warmDir is where the warm store of this build lives. The code version keys
// it: a store written by any other build would silently run cold.
func (b *bench) warmDir() string { return filepath.Join(b.build, "warm-store", b.codeVersion) }

// warmStore returns the store a cold -run all leaves for this build. When
// the checkout has none yet it is built, untimed, with the binary under test:
// every document must equal its golden, and the store's index.json must carry
// the code version vcbench -code-version prints.
func (b *bench) warmStore() (string, error) {
	if storeVersion(b.warmDir()) == b.codeVersion {
		return b.warmDir(), nil
	}
	dir, err := b.scratch()
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	if _, err := b.runVcbench(dir, storeArgs...); err != nil {
		return "", fmt.Errorf("building the warm store: %w", err)
	}
	if err := b.checkDocs(filepath.Join(dir, "out")); err != nil {
		return "", fmt.Errorf("building the warm store: %w", err)
	}
	store := filepath.Join(dir, "store")
	if v := storeVersion(store); v != b.codeVersion {
		return "", fmt.Errorf("store index.json has code version %q, vcbench -code-version says %q", v, b.codeVersion)
	}
	if err := os.RemoveAll(b.warmDir()); err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Dir(b.warmDir()), 0o755); err != nil {
		return "", err
	}
	return b.warmDir(), os.Rename(store, b.warmDir())
}

// storeVersion reads the code version from a store's index.json ("" when
// there is none).
func storeVersion(dir string) string {
	data, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		return ""
	}
	var idx struct {
		CodeVersion string `json:"code_version"`
	}
	if json.Unmarshal(data, &idx) != nil {
		return ""
	}
	return idx.CodeVersion
}

// cloneStore gives one pass its own store directory holding the entries of
// src. The entries are hard links: the store never writes into an existing
// file (it writes a temporary file and renames it into place, and unlinks
// entries it cannot decode), so nothing a pass does reaches src, and no
// copied pages are written back to disk while a later pass is timed.
// Temporary files a crashed writer left are not carried over.
func cloneStore(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		if !e.Type().IsRegular() {
			return fmt.Errorf("store entry %s is not a regular file", filepath.Join(src, e.Name()))
		}
		if err := os.Link(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// setupProbe times batch set-up once: spawn to exit of -run table1 over a
// copy of the workload's store (empty when warm is ""). The command pays
// process start, the code-version fingerprint and the store open, and runs no
// cell. ok is false when the probe failed its check, which counts against o.
func (b *bench) setupProbe(o *outcome, warm string) (d time.Duration, ok bool, err error) {
	dir, err := b.scratch()
	if err != nil {
		return 0, false, err
	}
	defer os.RemoveAll(dir)
	if warm != "" {
		if err := cloneStore(warm, filepath.Join(dir, "store")); err != nil {
			return 0, false, err
		}
	}
	p, err := b.runVcbench(dir, setupArgs...)
	if err == nil {
		err = b.checkDocs(filepath.Join(dir, "out"), "table1.json")
	}
	if !o.op(err) {
		return 0, false, nil
	}
	return p.wall, true, nil
}

// batchPass runs one batch command in a fresh directory (over a copy of warm
// unless it is ""), verifies it and reads its store statistics. A failed
// verification counts against o and returns a nil proc; an error means the
// benchmark itself could not run.
func (b *bench) batchPass(o *outcome, warm string, args []string, verify func(dir string, p *proc, st storeStats) error) (*proc, storeStats, error) {
	dir, err := b.scratch()
	if err != nil {
		return nil, storeStats{}, err
	}
	defer os.RemoveAll(dir)
	if warm != "" {
		if err := cloneStore(warm, filepath.Join(dir, "store")); err != nil {
			return nil, storeStats{}, err
		}
	}
	p, err := b.runVcbench(dir, args...)
	var st storeStats
	if err == nil {
		st, err = parseStoreStats(p.stderr.String())
	}
	if err == nil {
		err = verify(dir, p, st)
	}
	if !o.op(err) {
		return nil, st, nil
	}
	return p, st, nil
}

// coldPass returns a cold workload's pass: -run exp into an empty store,
// whose document must equal the golden.
func (b *bench) coldPass(exp string) func(*outcome) (*proc, storeStats, error) {
	args := []string{"-run", exp, "-reps", "1", "-format", "json", "-o", "out", "-store", "store", "-cache-stats"}
	return func(o *outcome) (*proc, storeStats, error) {
		return b.batchPass(o, "", args, func(dir string, _ *proc, _ storeStats) error {
			return b.checkDocs(filepath.Join(dir, "out"), exp+".json")
		})
	}
}

// warmPass is one warm-check-all pass over a fresh copy of the warm store: it
// must exit 0 with every paper check passed and no cell executed.
func (b *bench) warmPass(o *outcome) (*proc, storeStats, error) {
	return b.batchPass(o, b.warm, checkArgs, func(_ string, p *proc, st storeStats) error {
		var passed, failed int
		if _, err := fmt.Sscanf(lastLine(p.stdout.String()), "check: %d passed, %d failed", &passed, &failed); err != nil {
			return fmt.Errorf("no -check summary line: %w", err)
		}
		if failed > 0 || passed == 0 {
			return fmt.Errorf("check: %d passed, %d failed", passed, failed)
		}
		if st.executed > 0 {
			return fmt.Errorf("warm -check all executed %d cells", st.executed)
		}
		return nil
	})
}

// runBatch measures passes for d (at least one). The set-up probes are spread
// evenly among the passes, as serve-whatif's are over its load, so that they
// sample the state the run leaves the machine in rather than whatever ran
// before it.
func runBatch(b *bench, d time.Duration, warm string, pass func(*outcome) (*proc, storeStats, error)) (*outcome, error) {
	o := newOutcome()
	var passes []*proc
	var cells []float64
	var setup []time.Duration
	probes := 0
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		b.speed.sample()
		p, st, err := pass(o)
		if err != nil {
			return nil, err
		}
		if p != nil {
			passes = append(passes, p)
			cells = append(cells, float64(st.executed+st.replayed))
		}
		for due := min(setupSamples, 1+int(setupSamples*time.Since(start)/d)); probes < due; probes++ {
			t, ok, err := b.setupProbe(o, warm)
			if err != nil {
				return nil, err
			}
			if ok {
				setup = append(setup, t)
			}
		}
	}
	o.batchStats(passes, cells, setup)
	return o, nil
}

// runCold returns the run of a cold workload that reproduces exp.
func runCold(exp string) runFunc {
	return func(b *bench, _ int64, d time.Duration) (*outcome, error) {
		return runBatch(b, d, "", b.coldPass(exp))
	}
}

func runWarm(b *bench, _ int64, d time.Duration) (*outcome, error) {
	return runBatch(b, d, b.warm, b.warmPass)
}
