GO ?= go
# bash for pipefail in the bench recipe (dash has no pipefail).
SHELL := /bin/bash

.PHONY: all build vet test lint race chaos bench bench-dispatch bench-suite bench-serve bench-replay bench-compare bench-tables results check check-warm calibrate calibrate-sweep clean

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis gate: the standard `go vet` passes plus the repo's own
# analyzers (embedsync, nondeterminism, faultwrap, countersync — see
# internal/lint) through one driver. Exits non-zero on any finding.
lint:
	$(GO) run ./cmd/vcbenchlint ./...

test:
	$(GO) test ./...

# Race-check the concurrent suite scheduler (mirrors CI). The race detector
# slows the full-experiment tests by ~5-10x, so the default 10m per-package
# timeout is not enough headroom.
race:
	$(GO) test -race -timeout 30m ./...

# Fault-injection regression suite under the race detector: panic recovery in
# the worker pool, per-seed deterministic fault schedules (byte-identical
# documents at any -parallel), retry absorption of transients, and the
# faulted-executions-never-cached invariant. Mirrors the CI chaos job.
chaos:
	$(GO) test -race -run Chaos -timeout 30m ./...

# Perf tracking: the dispatch-engine microbenchmarks (BENCH_dispatch.json),
# the suite-level wall-time benchmarks of the counter-replay snapshot cache
# (BENCH_suite.json), the serve hot paths (BENCH_serve.json) and the layers of
# the warm replay path (BENCH_replay.json). Each file's "baseline" section is the first
# recorded reference and is preserved across runs; "current" is overwritten
# every time, so the perf trajectory is reviewable in the diff.
bench: bench-dispatch bench-suite bench-serve bench-replay

# The dispatch layer: the kernels.Execute microbenchmarks, what a dispatch
# memo hit costs instead (key plus lookup, internal/hw), whole cells through
# Runner.ExecuteCell (BenchmarkExecuteCell, internal/core) and the input draw
# of a cold bandwidth sweep (BenchmarkStreamDraw, internal/core). The
# packages run one at a time (-p 1), so that the whole-cell benchmark does
# not share the cores with the microbenchmarks.
bench-dispatch:
	set -o pipefail; $(GO) test -p 1 -run '^$$' -bench '^Benchmark(Execute|DispatchMemoHit|StreamDraw)' -benchmem ./internal/kernels ./internal/hw ./internal/core \
		| $(GO) run ./cmd/benchjson -update BENCH_dispatch.json

# Suite wall-time: the calibration sweep and `-run all` — cached (one
# execution per distinct cell + analytic replays), uncached, and against a
# warm persistent store (pure replay from disk, zero executions). One
# iteration each — these are whole-workflow timings; the cold/warm ratio is
# the value of persisting snapshots across runs.
bench-suite:
	set -o pipefail; $(GO) test -run '^$$' -bench '^Benchmark(Sweep|RunAll)' -benchtime 1x -benchmem -timeout 30m . ./internal/calibrate \
		| $(GO) run ./cmd/benchjson -update BENCH_suite.json

# Serving hot paths end to end through the HTTP handler (BENCH_serve.json):
# warm-store replay and the saturated 429 shed path. Beyond ns/op the entries
# record p50/p99 request latency, replays/s, sheds/s and the shed rate in the
# "extra" section — informational trend data; the gate below compares ns/op
# and allocs/op.
bench-serve:
	set -o pipefail; $(GO) test -run '^$$' -bench '^BenchmarkServe' -benchmem ./internal/serve \
		| $(GO) run ./cmd/benchjson -update BENCH_serve.json

# Per-layer costs of the warm replay path (BENCH_replay.json), on two real
# cells recorded once through a disk store (gaussian 448 through OpenCL, the
# largest stored entry, and backprop 64K through Vulkan, a median one): the
# disk-tier read with its decode, the snapshot decode alone, and the replay.
bench-replay:
	set -o pipefail; $(GO) test -run '^$$' -bench '^BenchmarkReplayPath$$' -benchmem . \
		| $(GO) run ./cmd/benchjson -update BENCH_replay.json

# Regression gate over the tracked perf files: fails when `current` exceeds
# `baseline` beyond the tolerances. allocs/op is deterministic for the
# single-dispatch microbenchmarks (exact); whole-suite allocation counts vary
# with goroutine scheduling and sync.Pool reuse, so the suite file gets 10%.
# The dispatch file's B/op gets 10% too: a whole cell that copies its input
# stream again (64 MB on the bandwidth cells) fails it.
bench-compare:
	$(GO) run ./cmd/benchjson -compare BENCH_dispatch.json -tol-ns 0.5 -tol-allocs 0 -tol-bytes 0.1
	$(GO) run ./cmd/benchjson -compare BENCH_suite.json -tol-ns 0.5 -tol-allocs 0.1
	$(GO) run ./cmd/benchjson -compare BENCH_serve.json -tol-ns 0.5 -tol-allocs 0.1
	$(GO) run ./cmd/benchjson -compare BENCH_replay.json -tol-ns 0.5 -tol-allocs 0.1

# Regenerate every table and figure once.
bench-tables:
	$(GO) test -bench . -benchtime 1x ./...

# Write every experiment as versioned JSON under out/ (the CI artifact).
results:
	$(GO) run ./cmd/vcbench -run all -format json -o out -reps 1

# Compare every experiment against the paper's published values within the
# documented tolerances (internal/expected). Mirrors TestPaperFidelity.
# STORE=dir attaches the persistent snapshot store, so a second `make check
# STORE=dir` is pure replay (CI keys the directory on the code-version
# fingerprint, see ci.yml).
STORE ?=
STOREFLAGS = $(if $(STORE),-store $(STORE))
check:
	$(GO) run ./cmd/vcbench -check all -reps 1 $(STOREFLAGS)

# Warm-store smoke: populate a throwaway store, re-run the fidelity check
# against it and require a pure-replay pass — the second run must execute
# zero cells ("snapshot store: 0 executed" in the -cache-stats report). The
# key holds no repetition count, so a third check at the default -reps must
# replay the -reps 1 store too.
check-warm:
	rm -rf .vcbench-store-smoke
	$(GO) run ./cmd/vcbench -check all -reps 1 -store .vcbench-store-smoke
	set -o pipefail; $(GO) run ./cmd/vcbench -check all -reps 1 -store .vcbench-store-smoke -cache-stats 2>&1 \
		| grep 'snapshot store: 0 executed'
	set -o pipefail; $(GO) run ./cmd/vcbench -check all -store .vcbench-store-smoke -cache-stats 2>&1 \
		| grep 'snapshot store: 0 executed'
	rm -rf .vcbench-store-smoke

# Per-benchmark Fig. 2/4 calibration error report for every platform: each
# pinned speedup bar, figure geomean and bandwidth plateau with its relative
# error against the paper. Run after any timing-model change.
calibrate:
	$(GO) run ./cmd/vcbench -calibrate all -reps 1

# Deterministic driver-knob sweep proposing recalibrated internal/platforms
# values for one platform. The suite executes once; candidates are scored by
# snapshot replay. Usage: make calibrate-sweep PLATFORM=gtx1050ti
PLATFORM ?= gtx1050ti
calibrate-sweep:
	$(GO) run ./cmd/vcbench -calibrate $(PLATFORM) -sweep -reps 1

clean:
	rm -f vcbench
	rm -rf out .vcbench-store .vcbench-store-smoke
