package calibrate

import (
	"fmt"
	"io"
	"strings"
	"time"

	"vcomputebench/internal/core"
	"vcomputebench/internal/experiments"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
)

// Options configures a sweep.
type Options struct {
	// Experiments are the run options (seed, parallelism, store) every
	// evaluation uses; identical options make the whole sweep deterministic.
	Experiments experiments.Options
	// Passes bounds the coordinate-descent passes over the knob set
	// (default 1). The sweep also stops early when a pass improves nothing.
	Passes int
	// Knobs restricts the swept knobs; nil means DefaultKnobs(platform).
	Knobs []Knob
	// Progress, when non-nil, receives one line per evaluation so the
	// long-running sweep is observable.
	Progress io.Writer
	// NoCache forces every evaluation to execute the full figure suite
	// instead of replaying the first execution's snapshots (the user's
	// explicit `-cache=false` opt-out, e.g. to cross-check replay itself).
	// By default the sweep creates a shared snapshot cache when
	// Experiments.Cache is nil.
	NoCache bool

	// evaluate overrides the measurement for tests (nil = Measure).
	evaluate func(*platforms.Platform) (*Report, error)
}

// Change is one proposed platform value: knob moved From -> To.
type Change struct {
	API      hw.API
	Field    string
	From, To float64
}

func (c Change) String() string {
	if efficiencyField(c.Field) {
		return fmt.Sprintf("%s %s: %.3f -> %.3f", c.API, c.Field, c.From, c.To)
	}
	from := time.Duration(c.From * float64(time.Second))
	to := time.Duration(c.To * float64(time.Second))
	return fmt.Sprintf("%s %s: %v -> %v", c.API, c.Field, from, to)
}

// SweepResult is the outcome of a deterministic parameter sweep.
type SweepResult struct {
	Platform string
	// Initial and Final are the reports before and after the sweep.
	Initial, Final *Report
	// Proposed is the calibrated platform (a clone; the canonical platform is
	// untouched).
	Proposed *platforms.Platform
	// Changes lists the knob moves that survived, in the order they were
	// accepted.
	Changes []Change
	// Evaluations counts how many measurements the sweep spent.
	Evaluations int
}

// String renders the sweep outcome, ending with the proposed
// internal/platforms values in paste-ready form. A knob accepted more than
// once (within one grid, or across passes) is collapsed to its original and
// final values, so every listed move is safe to paste as-is.
func (r *SweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep for %s: score %.4f -> %.4f (geomean residual %.1f%% -> %.1f%%), %d evaluations\n",
		r.Platform, r.Initial.Score, r.Final.Score,
		r.Initial.GeomeanResidual*100, r.Final.GeomeanResidual*100, r.Evaluations)
	if len(r.Changes) == 0 {
		b.WriteString("no knob change improved the objective; profile already calibrated\n")
		return b.String()
	}
	type key struct {
		api   hw.API
		field string
	}
	final := map[key]Change{}
	var order []key
	for _, c := range r.Changes {
		k := key{c.API, c.Field}
		if prev, ok := final[k]; ok {
			prev.To = c.To
			final[k] = prev
			continue
		}
		final[k] = c
		order = append(order, k)
	}
	b.WriteString("proposed internal/platforms values:\n")
	for _, k := range order {
		fmt.Fprintf(&b, "  %s\n", final[k])
	}
	return b.String()
}

// Sweep performs a deterministic coordinate descent over the platform's
// driver knobs: for each knob in a fixed order, every candidate value from a
// fixed multiplicative grid is evaluated and the best strictly-improving one
// is kept. The canonical platform is never mutated; the winner is returned as
// a clone with the proposed values applied.
//
// Every evaluation shares one snapshot cache, and the swept knobs are exactly
// the timing-only fields the cache's execution fingerprint ignores: the first
// (baseline) evaluation executes the platform's figure suite once, and every
// candidate profile afterwards is scored by replaying those snapshots
// analytically. A sweep of E evaluations therefore costs one full execution
// plus E cheap replays instead of E executions.
func Sweep(p *platforms.Platform, opts Options) (*SweepResult, error) {
	passes := opts.Passes
	if passes <= 0 {
		passes = 1
	}
	eval := opts.evaluate
	if eval == nil {
		if opts.Experiments.Cache == nil && !opts.NoCache {
			opts.Experiments.Cache = core.NewSnapshotCache(0)
		}
		eval = func(cand *platforms.Platform) (*Report, error) {
			return Measure(cand, opts.Experiments)
		}
	}
	knobs := opts.Knobs
	if knobs == nil {
		knobs = DefaultKnobs(p)
	}

	cur := ClonePlatform(p)
	res := &SweepResult{Platform: p.ID, Proposed: cur}
	best, err := eval(cur)
	if err != nil {
		return nil, err
	}
	res.Evaluations++
	res.Initial, res.Final = best, best
	progress(opts, "baseline score %.4f", best.Score)

	// Strict-improvement margin: a candidate must beat the incumbent by more
	// than floating-point noise (relative, with a tiny absolute floor) to be
	// accepted, so the sweep cannot oscillate and its outcome is independent
	// of evaluation-order ties.
	betterThan := func(cand, incumbent float64) bool {
		return incumbent-cand > 1e-12+1e-9*incumbent
	}
	for pass := 0; pass < passes; pass++ {
		improved := false
		for _, k := range knobs {
			drv, ok := cur.Profile.Drivers[k.API]
			if !ok || !drv.Supported {
				continue
			}
			current, err := knobValue(&drv, k.Field)
			if err != nil {
				return nil, err
			}
			for _, v := range candidateValues(k.Field, current) {
				cand := ClonePlatform(cur)
				cdrv := cand.Profile.Drivers[k.API]
				if err := setKnobValue(&cdrv, k.Field, v); err != nil {
					return nil, err
				}
				cand.Profile.Drivers[k.API] = cdrv
				if err := cand.Profile.Validate(); err != nil {
					continue // out-of-range candidate (e.g. factor > 1)
				}
				r, err := eval(cand)
				if err != nil {
					return nil, err
				}
				res.Evaluations++
				progress(opts, "%s %s = %g: score %.4f (best %.4f)", k.API, k.Field, v, r.Score, best.Score)
				if betterThan(r.Score, best.Score) {
					best = r
					cur = cand
					improved = true
					res.Changes = append(res.Changes, Change{API: k.API, Field: k.Field, From: current, To: v})
					current = v
				}
			}
		}
		if !improved {
			break
		}
	}
	res.Final = best
	res.Proposed = cur
	return res, nil
}

func progress(opts Options, format string, args ...interface{}) {
	if opts.Progress == nil {
		return
	}
	fmt.Fprintf(opts.Progress, "calibrate: "+format+"\n", args...)
}
