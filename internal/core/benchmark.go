// Package core is the heart of VComputeBench: the benchmark abstraction, the
// suite registry, the run context handed to benchmark host code, and the
// runner that executes benchmarks repeatedly and averages their measurements
// (mirroring §V of the paper: "we execute several times and report the average
// of the obtained execution times").
package core

import (
	"context"
	"math"
	"time"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/stats"
)

// Workload is one input configuration of a benchmark, identified by the label
// used on the x-axis of the paper's figures.
type Workload struct {
	// Label is the input-size label, e.g. "64K" or "512-16".
	Label string
	// Params are the benchmark-specific parameters (element counts, matrix
	// orders, iteration counts, ...).
	Params map[string]int
}

// Param returns the named parameter, or def if unset.
func (w Workload) Param(name string, def int) int {
	if v, ok := w.Params[name]; ok {
		return v
	}
	return def
}

// WithParam returns a copy of the workload with one parameter overridden.
func (w Workload) WithParam(name string, value int) Workload {
	params := make(map[string]int, len(w.Params)+1)
	for k, v := range w.Params {
		params[k] = v
	}
	params[name] = value
	return Workload{Label: w.Label, Params: params}
}

// RunContext is everything a benchmark's host code needs for one run.
type RunContext struct {
	// Ctx carries the attempt's cancellation and per-cell deadline. The
	// runner enforces it at every dispatch through the device fault hook, so
	// benchmarks need not consult it; long host-side loops may. It can be nil
	// when a RunContext is constructed by hand in tests.
	Ctx context.Context
	// Host is the simulated CPU of the run, attached to Device: it records
	// the run's timing trace and steps its timeline. The benchmark measures
	// with its clock through Stopwatch and Now.
	Host *hw.Host
	// Device is the simulated GPU.
	Device *hw.Device
	// Platform identifies the device profile in use.
	Platform *platforms.Platform
	// API selects which front end the host code must use.
	API hw.API
	// Workload is the input configuration.
	Workload Workload
	// Seed makes input generation deterministic.
	Seed int64
	// Validate requests that the benchmark also compute its CPU reference and
	// verify the device output against it (used by tests; expensive).
	Validate bool

	// streams is the table RandomF32 and RandomI32 share inputs through; nil
	// (a hand-built context) draws every stream privately.
	streams *inputStreams
}

// Stopwatch starts a stopwatch on the run's host clock. Its start and every
// Elapsed call are trace marks, so a replay can recompute the measured
// interval under a different driver profile.
func (ctx *RunContext) Stopwatch() *Stopwatch {
	return &Stopwatch{host: ctx.Host, start: ctx.Host.Mark()}
}

// Now returns the current host time, recording the observation in the run's
// timing trace. Benchmarks must use it — not ctx.Host.Now() — for any value
// they place in a Result (e.g. TotalTime), so snapshot replay can rebind it.
func (ctx *RunContext) Now() time.Duration { return ctx.Host.ReadNow() }

// Stopwatch measures an interval of host virtual time (the paper's
// std::chrono usage) between two trace marks.
type Stopwatch struct {
	host  *hw.Host
	start int32
}

// Elapsed returns the virtual time elapsed since the stopwatch started.
func (s *Stopwatch) Elapsed() time.Duration { return s.host.ReadSince(s.start) }

// Result is the outcome of one benchmark run. The JSON tags are part of the
// versioned results schema (report.SchemaVersion): durations serialise as
// integer nanoseconds, so the encoding is exact and platform-independent.
type Result struct {
	Benchmark string `json:"benchmark"`
	API       hw.API `json:"api"`
	Platform  string `json:"platform"`
	Workload  string `json:"workload"`

	// KernelTime is the measured time of the compute phase: from just before
	// the first kernel launch / queue submission to the completion of the last
	// kernel, excluding data transfers and program build. This is the quantity
	// the paper compares across APIs (§V-A2).
	KernelTime time.Duration `json:"kernel_time_ns"`
	// TotalTime is the end-to-end host time of the run, including buffer
	// management, transfers and (for OpenCL) JIT compilation.
	TotalTime time.Duration `json:"total_time_ns"`
	// Dispatches is the number of kernel launches / dispatches performed.
	Dispatches int `json:"dispatches"`
	// Checksum is a digest of the output buffers used for cross-API
	// validation.
	Checksum float64 `json:"checksum"`
	// KernelStats and TotalStats summarise the spread of the measured
	// repetitions (min/max/stddev alongside the mean; warm-up runs are
	// excluded). KernelTime and TotalTime equal the respective means.
	KernelStats stats.DurationStats `json:"kernel_stats"`
	TotalStats  stats.DurationStats `json:"total_stats"`
	// Extra carries benchmark-specific metrics (e.g. achieved bandwidth in
	// GB/s for the memory microbenchmark).
	Extra map[string]float64 `json:"extra,omitempty"`

	// throughputBytes records, for Extra entries set via SetExtraThroughput,
	// the byte numerator of the bytes-over-kernel-time formula. Snapshot
	// replay uses it to recompute those extras bit-identically under a
	// different driver profile; it never serialises.
	throughputBytes map[string]float64
}

// ExtraValue returns the named extra metric, or 0 if absent.
func (r *Result) ExtraValue(name string) float64 {
	if r.Extra == nil {
		return 0
	}
	return r.Extra[name]
}

// SetExtra stores an extra metric, allocating the map on first use.
func (r *Result) SetExtra(name string, v float64) {
	if r.Extra == nil {
		r.Extra = make(map[string]float64)
	}
	r.Extra[name] = v
}

// ThroughputGBps is the canonical bytes-over-time formula shared by the
// benchmarks and snapshot replay. Both sides must use the identical operation
// order, or a replayed bandwidth could differ from a fresh run in its last
// bits.
func ThroughputGBps(usefulBytes float64, t time.Duration) float64 {
	if t <= 0 {
		return 0
	}
	return usefulBytes / t.Seconds() / 1e9
}

// SetExtraThroughput stores an extra metric of the form usefulBytes /
// kernelTime (in GB/s) and records the numerator, so snapshot replay can
// recompute the metric from the replayed kernel time. Benchmarks whose extras
// depend on measured time must use this instead of SetExtra; extras stored
// with SetExtra are treated as timing-independent and copied verbatim by
// replay.
func (r *Result) SetExtraThroughput(name string, usefulBytes float64, kernelTime time.Duration) {
	r.SetExtra(name, ThroughputGBps(usefulBytes, kernelTime))
	if r.throughputBytes == nil {
		r.throughputBytes = make(map[string]float64)
	}
	r.throughputBytes[name] = usefulBytes
}

// Benchmark is the runner-facing view of one registered workload: its Table I
// metadata, the input configurations used on desktop and mobile platforms, and
// host implementations for each API. Workloads register a Descriptor (see
// descriptor.go); the registry adapts it to this interface.
type Benchmark interface {
	// Name is the short benchmark name used in the figures (e.g. "bfs").
	Name() string
	// Dwarf is the Berkeley dwarf classification from Table I.
	Dwarf() string
	// Domain is the application domain from Table I.
	Domain() string
	// Description is a one-line description of the workload.
	Description() string
	// Workloads returns the input configurations evaluated on the given device
	// class, in the order they appear in the paper's figures.
	Workloads(class hw.Class) []Workload
	// APIs lists the front ends the benchmark implements.
	APIs() []hw.API
	// Run executes the benchmark once under the given context.
	Run(ctx *RunContext) (*Result, error)
}

// ChecksumWords computes an order-dependent digest of a word buffer,
// interpreting each word as its raw bits. It is cheap, deterministic and
// sensitive to both value and position, which is what cross-API output
// validation needs.
func ChecksumWords(w kernels.Words) float64 {
	var h uint64 = 1469598103934665603 // FNV offset basis
	for _, x := range w {
		h ^= uint64(x)
		h *= 1099511628211
	}
	// Fold to float64 via the mantissa to keep Result JSON/CSV friendly.
	return float64(h % (1 << 52))
}

// Sentinel checksums for non-finite data. A kernel that overflows float32
// leaves ±Inf (and, combined, NaN) in its output buffer; folding those through
// the rounding path would either never terminate (Inf) or yield
// platform-dependent garbage that breaks the repetition-equality check
// (NaN != NaN). Each non-finite class collapses to a fixed finite value far
// outside any achievable rounded checksum, so repeated runs still agree and
// cross-API comparison still distinguishes +Inf from -Inf from NaN.
const (
	checksumNaN    = math.MaxFloat64
	checksumPosInf = math.MaxFloat64 / 2
	checksumNegInf = -math.MaxFloat64 / 2
)

// ChecksumF32 computes a tolerant digest of float data: a combination of sum
// and sum of absolute values rounded to 5 significant decimals, so results
// that differ only by floating-point association order still match.
// Non-finite accumulations (overflowed kernels, Inf/NaN in the buffer) map to
// deterministic sentinel values instead of propagating.
func ChecksumF32(data []float32) float64 {
	var sum, abs float64
	for _, v := range data {
		sum += float64(v)
		if v < 0 {
			abs -= float64(v)
		} else {
			abs += float64(v)
		}
	}
	switch {
	case math.IsNaN(sum) || math.IsNaN(abs):
		return checksumNaN
	case math.IsInf(sum, 1) || (math.IsInf(abs, 0) && sum >= 0):
		return checksumPosInf
	case math.IsInf(sum, -1) || math.IsInf(abs, 0):
		return checksumNegInf
	}
	return roundSig(sum, 5) + 1e-3*roundSig(abs, 5)
}

// roundSig rounds x to the given number of significant decimal digits.
// Non-finite inputs pass through unchanged: the digit-extraction loops below
// would never terminate on ±Inf, and NaN would survive them only to produce a
// platform-dependent int64 conversion.
func roundSig(x float64, digits int) float64 {
	if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return x
	}
	neg := x < 0
	if neg {
		x = -x
	}
	scale := 1.0
	for x >= 10 {
		x /= 10
		scale *= 10
	}
	for x < 1 {
		x *= 10
		scale /= 10
	}
	pow := 1.0
	for i := 1; i < digits; i++ {
		pow *= 10
	}
	v := float64(int64(x*pow+0.5)) / pow * scale
	if neg {
		return -v
	}
	return v
}
