package core

import (
	"fmt"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/platforms"
)

// Exports for the external fuzz tests, which link every registered kernel
// program so that real recorded snapshots decode.
var (
	StoreTestRegistry = storeTestRegistry
	ReplayDecoded     = replayDecoded
	EncodeEntry       = encodeEntry
	DecodeEntry       = decodeEntry
)

// TraceCounters executes one run of the benchmark and returns the
// per-dispatch kernel counters summed over every dispatch of its trace,
// along with the number of dispatches observed. It is the measurement side
// of TrafficModel validation: tests compare the returned
// GlobalLoadBytes/GlobalStoreBytes and dispatch count against the analytic
// model.
func TraceCounters(p *platforms.Platform, b Benchmark, api hw.API, w Workload, seed int64) (kernels.Counters, int, error) {
	dev, err := p.NewDevice()
	if err != nil {
		return kernels.Counters{}, 0, fmt.Errorf("core: creating device for %s: %w", p.ID, err)
	}
	host := hw.NewHost(dev, api)
	ctx := &RunContext{
		Host:     host,
		Device:   dev,
		Platform: p,
		API:      api,
		Workload: w,
		Seed:     seed,
	}
	if _, err := b.Run(ctx); err != nil {
		return kernels.Counters{}, 0, err
	}
	var sum kernels.Counters
	dispatches := host.Trace().Kernels
	for i := range dispatches {
		sum.Add(&dispatches[i].Counters)
	}
	return sum, len(dispatches), nil
}
