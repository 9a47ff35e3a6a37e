package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"vcomputebench/internal/core"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
)

// SimulateRequest is the wire shape of POST /v1/simulate: one measurement
// cell, plus optional timing-only DriverProfile knob overrides for what-if
// queries. Platform, benchmark and API use the same lowercase identifiers as
// the CLI (-platform, -bench, api= fault filters); Workload defaults to the
// first workload of the platform's device class.
type SimulateRequest struct {
	Platform  string `json:"platform"`
	Benchmark string `json:"benchmark"`
	API       string `json:"api"`
	Workload  string `json:"workload,omitempty"`
	// DriverKnobs overrides timing-only DriverProfile fields of the requested
	// API's driver (see knobSetters for the names). Structural fields —
	// anything in the execution fingerprint — are not overridable: the whole
	// point is that a knob change replays the same stored snapshot instead of
	// forcing an execution.
	DriverKnobs map[string]float64 `json:"driver_knobs,omitempty"`
}

// requestError marks a malformed or unresolvable request; the handler maps
// it to 400.
type requestError struct{ msg string }

func (e *requestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &requestError{msg: fmt.Sprintf(format, args...)}
}

// simCell is a resolved simulate request: the platform, private to the
// request and possibly knob-overridden, the registry benchmark, and the
// canonical flight key identical requests collapse under.
type simCell struct {
	p        *platforms.Platform
	bench    core.Benchmark
	api      hw.API
	workload core.Workload
	knobs    []knob // applied overrides, sorted by name (report notes)
	key      string // canonical identity: flight key
}

type knob struct {
	name  string
	value float64
}

// knobSetters maps wire knob names to timing-only DriverProfile fields.
// Every entry must stay out of hw.Profile.ExecutionFingerprint — replay
// revalues these on an existing trace; a structural field here would serve
// results from a snapshot the override invalidated.
var knobSetters = map[string]func(*hw.DriverProfile, float64){
	"kernel_launch_overhead_ns":     func(d *hw.DriverProfile, v float64) { d.KernelLaunchOverhead = time.Duration(v) },
	"sync_latency_ns":               func(d *hw.DriverProfile, v float64) { d.SyncLatency = time.Duration(v) },
	"submit_overhead_ns":            func(d *hw.DriverProfile, v float64) { d.SubmitOverhead = time.Duration(v) },
	"command_record_overhead_ns":    func(d *hw.DriverProfile, v float64) { d.CommandRecordOverhead = time.Duration(v) },
	"pipeline_bind_overhead_ns":     func(d *hw.DriverProfile, v float64) { d.PipelineBindOverhead = time.Duration(v) },
	"barrier_overhead_ns":           func(d *hw.DriverProfile, v float64) { d.BarrierOverhead = time.Duration(v) },
	"descriptor_update_overhead_ns": func(d *hw.DriverProfile, v float64) { d.DescriptorUpdateOverhead = time.Duration(v) },
	"push_constant_overhead_ns":     func(d *hw.DriverProfile, v float64) { d.PushConstantOverhead = time.Duration(v) },
	"jit_compile_time_ns":           func(d *hw.DriverProfile, v float64) { d.JITCompileTime = time.Duration(v) },
	"pipeline_create_time_ns":       func(d *hw.DriverProfile, v float64) { d.PipelineCreateTime = time.Duration(v) },
	"alloc_overhead_ns":             func(d *hw.DriverProfile, v float64) { d.AllocOverhead = time.Duration(v) },
	"compiler_efficiency":           func(d *hw.DriverProfile, v float64) { d.CompilerEfficiency = v },
	"memory_efficiency":             func(d *hw.DriverProfile, v float64) { d.MemoryEfficiency = v },
	"scattered_memory_efficiency":   func(d *hw.DriverProfile, v float64) { d.ScatteredMemoryEfficiency = v },
	"local_memory_opt_factor":       func(d *hw.DriverProfile, v float64) { d.LocalMemoryOptFactor = v },
}

// KnobNames lists the accepted driver_knobs keys, sorted (documentation and
// error messages).
func KnobNames() []string {
	names := make([]string, 0, len(knobSetters))
	for name := range knobSetters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// decodeRequest reads one simulate request body: a single JSON object of at
// most DefaultMaxBodyBytes, with no field SimulateRequest lacks.
func decodeRequest(body io.ReadCloser) (*SimulateRequest, error) {
	var req SimulateRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, body, DefaultMaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// resolve validates the request against the registries and builds the cell:
// platform (knobs applied, driver re-validated), benchmark, API, workload,
// and the canonical key. platforms.ByID builds a platform private to this
// request, so the knobs are set on it in place.
func resolve(req *SimulateRequest) (*simCell, error) {
	p, err := platforms.ByID(req.Platform)
	if err != nil {
		return nil, badRequest("unknown platform %q", req.Platform)
	}
	b, err := core.Get(req.Benchmark)
	if err != nil {
		return nil, badRequest("unknown benchmark %q", req.Benchmark)
	}
	api := hw.API(strings.ToLower(req.API))
	if !api.Valid() {
		return nil, badRequest("unknown api %q (want vulkan, cuda or opencl)", req.API)
	}
	available := b.Workloads(p.Profile.Class)
	if len(available) == 0 {
		return nil, badRequest("benchmark %q has no workloads for device class %q", req.Benchmark, p.Profile.Class)
	}
	w := available[0]
	if req.Workload != "" {
		found := false
		for _, cand := range available {
			if cand.Label == req.Workload {
				w = cand
				found = true
				break
			}
		}
		if !found {
			labels := make([]string, len(available))
			for i, cand := range available {
				labels[i] = cand.Label
			}
			return nil, badRequest("benchmark %q has no workload %q on %s (have %s)",
				req.Benchmark, req.Workload, p.ID, strings.Join(labels, ", "))
		}
	}

	cell := &simCell{p: p, bench: b, api: api, workload: w}
	if len(req.DriverKnobs) > 0 {
		names := make([]string, 0, len(req.DriverKnobs))
		for name := range req.DriverKnobs {
			names = append(names, name)
		}
		sort.Strings(names)
		drv, ok := p.Profile.Drivers[api]
		if !ok {
			return nil, badRequest("platform %s has no %s driver to override", p.ID, api)
		}
		for _, name := range names {
			set, ok := knobSetters[name]
			if !ok {
				return nil, badRequest("unknown driver knob %q (have %s)", name, strings.Join(KnobNames(), ", "))
			}
			v := req.DriverKnobs[name]
			// A duration knob converts to an int64 of nanoseconds; Go leaves
			// the conversion of a value beyond it undefined (amd64 gives a
			// negative duration).
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v >= math.MaxInt64 {
				return nil, badRequest("driver knob %q: value %v must be finite, non-negative and below 2^63", name, v)
			}
			set(&drv, v)
			cell.knobs = append(cell.knobs, knob{name: name, value: v})
		}
		if err := drv.Validate(); err != nil {
			return nil, badRequest("driver knobs leave an invalid %s driver: %v", api, err)
		}
		p.Profile.Drivers[api] = drv
	}
	cell.key = cell.canonicalKey()
	return cell, nil
}

// canonicalKey is the flight identity of the cell: everything that can change
// the response bytes. Knobs are folded in sorted, so two requests spelling
// the same overrides in different JSON orders collapse onto one flight. The
// key lives in memory only, so only its uniqueness matters; a value is
// spelled in its shortest form, as %g spells it.
func (c *simCell) canonicalKey() string {
	b := make([]byte, 0, 128)
	for _, s := range [...]string{c.p.ID, c.bench.Name(), string(c.api), c.workload.Label} {
		b = append(b, s...)
		b = append(b, '|')
	}
	for _, kn := range c.knobs {
		b = append(b, kn.name...)
		b = append(b, '=')
		b = strconv.AppendFloat(b, kn.value, 'g', -1, 64)
		b = append(b, '|')
	}
	return string(b)
}
