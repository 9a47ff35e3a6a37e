package main

import (
	"context"
	"flag"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"vcomputebench/internal/codeversion"
	"vcomputebench/internal/core"
	"vcomputebench/internal/serve"
)

// serveCmd is the `vcbench serve` subcommand: the long-running
// benchmark-as-a-service mode (internal/serve). It has its own FlagSet —
// serving shares the runner knobs with batch mode but none of the experiment
// selection — and its own signal semantics: SIGINT/SIGTERM begins a graceful
// drain (stop accepting, finish in-flight within -drain-timeout, flush store
// stats) and a completed drain exits 0, where batch mode's interrupt is a
// hard exit 1.
func serveCmd(args []string) error {
	fs := flag.NewFlagSet("vcbench serve", flag.ExitOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		storeDir    = fs.String("store", "", "directory of the persistent snapshot store (the replay hot path); empty serves from a memory-only cache")
		storeGC     = fs.Bool("store-gc", false, "with -store: GC stale/undecodable entries and orphaned temp files before serving")
		seed        = fs.Int64("seed", 42, "input generation seed")
		executors   = fs.Int("executors", runtime.NumCPU(), "concurrently executing cells (store misses); replays bypass the pool")
		queueDepth  = fs.Int("queue", serve.DefaultQueueDepth, "executions allowed to wait for an executor before further ones are shed with 429 (-1 = no queue)")
		cellTimeout = fs.Duration("cell-timeout", serve.DefaultCellTimeout, "per-execution-attempt deadline (expiry is transient, eligible for -retries)")
		retries     = fs.Int("retries", 1, "retry budget per cell for transient failures")
		retryBack   = fs.Duration("retry-backoff", core.DefaultRetryBackoff, "base delay of the retry backoff (doubles per attempt)")
		reqTimeout  = fs.Duration("request-timeout", 30*time.Second, "how long a request may wait on a shared in-flight result before 504 (0 = no bound)")
		drainGrace  = fs.Duration("drain-timeout", serve.DefaultDrainTimeout, "graceful-drain budget for in-flight requests on SIGTERM")
		retryAfter  = fs.Duration("retry-after", serve.DefaultRetryAfter, "advisory Retry-After on 429/503 responses (rounded up to seconds)")
	)
	fs.Int("reps", 1, repsUsage)
	plannerFor := registerServeFaultFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	planner, err := plannerFor()
	if err != nil {
		return err
	}
	cfg := serve.Config{
		Addr:           *addr,
		Seed:           *seed,
		CellTimeout:    *cellTimeout,
		Retries:        *retries,
		RetryBackoff:   *retryBack,
		Faults:         planner,
		Executors:      *executors,
		QueueDepth:     *queueDepth,
		RequestTimeout: *reqTimeout,
		DrainTimeout:   *drainGrace,
		RetryAfter:     *retryAfter,
		CodeVersion:    codeversion.Fingerprint(),
		Log:            os.Stderr,
	}
	if *queueDepth < 0 {
		cfg.QueueDepth = -1
	}
	if *storeDir != "" {
		if cfg.Disk, err = openStore(*storeDir, *storeGC, "vcbench serve"); err != nil {
			return err
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return srv.Run(ctx)
}
