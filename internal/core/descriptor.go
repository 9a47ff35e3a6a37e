package core

import (
	"fmt"
	"sort"
	"sync"

	"vcomputebench/internal/hw"
)

// Family groups workloads by their role in the study: the nine Rodinia ports
// of Table I, the two microbenchmarks of §IV-A/§V-A1, and extensions added
// beyond the paper's set. Experiments, figures and the paper-fidelity checks
// select workloads by family, so an extension can never leak into a paper
// figure.
type Family string

const (
	// FamilyRodinia is the nine Rodinia ports of Table I (Figures 2 and 4).
	FamilyRodinia Family = "rodinia"
	// FamilyMicro is the vectoradd and membandwidth microbenchmarks
	// (Listing 1, Figures 1 and 3).
	FamilyMicro Family = "micro"
	// FamilyExtension is every workload added beyond the paper's suite. The
	// paper experiments never query this family; the "extensions" experiment
	// renders it.
	FamilyExtension Family = "extension"
)

// Families returns every known family in presentation order.
func Families() []Family { return []Family{FamilyRodinia, FamilyMicro, FamilyExtension} }

// Traffic is the analytic global-memory traffic a workload configuration is
// expected to generate, used to validate the simulator's per-dispatch counters
// against a closed-form model.
type Traffic struct {
	// GlobalLoadBytes / GlobalStoreBytes are the exact global-memory bytes the
	// kernel's loads and stores move for the workload.
	GlobalLoadBytes  float64
	GlobalStoreBytes float64
	// Dispatches is the number of kernel dispatches one run performs.
	Dispatches int
}

// GlobalBytes is the total modelled global traffic.
func (t Traffic) GlobalBytes() float64 { return t.GlobalLoadBytes + t.GlobalStoreBytes }

// TrafficModel maps a workload configuration to its analytic traffic. Models
// must be exact for workloads below the counter-sampling threshold, so tests
// can compare with zero tolerance.
type TrafficModel func(w Workload) Traffic

// PaperExclusion records a platform (and optionally API) combination the paper
// reports as not runnable for this workload (§V-B2: driver failures,
// out-of-memory datasets). An empty API means every API is excluded. The
// runtime source of exclusions remains platforms.Quirks; descriptors mirror
// them so expectation checking can resolve exclusions against the registry,
// and a registry invariants test pins the two views identical.
type PaperExclusion struct {
	Platform string
	API      hw.API
	Reason   string
}

// Descriptor is the single registration record of one workload: its Table I
// metadata, figure placement, per-API availability, per-class input
// configurations, known paper exclusions and an optional analytic traffic
// model. Every consumer — suite listing, Table I, the figure grids, expected
// exclusions, calibration and the CLI — derives from it, so adding a workload
// is one self-contained package calling Register.
type Descriptor struct {
	// Name is the short benchmark name used in the figures (e.g. "bfs").
	Name string
	// Family places the workload in the paper suite or the extension zoo.
	Family Family
	// Application is the one-line application description (Table I).
	Application string
	// Dwarf is the Berkeley dwarf classification (Table I).
	Dwarf string
	// Domain is the application domain (Table I).
	Domain string
	// Rank orders the workload on its family's figure x-axis (0-based,
	// contiguous within a family).
	Rank int
	// APIs lists the front ends the workload implements.
	APIs []hw.API
	// Workloads returns the input configurations evaluated on the given
	// device class, in figure order.
	Workloads func(class hw.Class) []Workload
	// Exclusions mirrors the paper's platform quirks for this workload.
	Exclusions []PaperExclusion
	// Traffic, when non-nil, is the analytic traffic model counter-validation
	// tests check the simulator against.
	Traffic TrafficModel
	// Run executes the workload once under the given context.
	Run func(ctx *RunContext) (*Result, error)
	// PerAPIDeviceWork declares that the workload's API paths dispatch
	// different device work, as membandwidth's CUDA path adds a warm-up
	// launch. The API cells of every other workload dispatch the same kernels
	// on the same inputs. The declaration does not change scheduling: a
	// suite runs every triple's cells on one dispatch memo, which matches
	// dispatches by what they bind, so a sibling takes every dispatch a cell
	// before it executed and executes the rest. TestAPIsDispatchTheSameWork
	// holds the declaration to the truth both ways.
	PerAPIDeviceWork bool
}

// validate reports why the descriptor is not registrable, or nil.
func (d *Descriptor) validate() error {
	switch {
	case d.Name == "":
		return fmt.Errorf("core: descriptor has no name")
	case d.Family != FamilyRodinia && d.Family != FamilyMicro && d.Family != FamilyExtension:
		return fmt.Errorf("core: descriptor %q has unknown family %q", d.Name, d.Family)
	case d.Application == "" || d.Dwarf == "" || d.Domain == "":
		return fmt.Errorf("core: descriptor %q is missing Table I metadata", d.Name)
	case d.Rank < 0:
		return fmt.Errorf("core: descriptor %q has negative rank", d.Name)
	case len(d.APIs) == 0:
		return fmt.Errorf("core: descriptor %q implements no APIs", d.Name)
	case d.Workloads == nil:
		return fmt.Errorf("core: descriptor %q has no workloads", d.Name)
	case d.Run == nil:
		return fmt.Errorf("core: descriptor %q has no run function", d.Name)
	}
	return nil
}

// Implements reports whether the workload has a host implementation for api.
func (d *Descriptor) Implements(api hw.API) bool {
	for _, a := range d.APIs {
		if a == api {
			return true
		}
	}
	return false
}

// ExcludedOn returns the recorded paper exclusion reason for the platform/API
// combination, if any. An exclusion with an empty API matches every API.
func (d *Descriptor) ExcludedOn(platformID string, api hw.API) (string, bool) {
	for _, e := range d.Exclusions {
		if e.Platform == platformID && (e.API == "" || e.API == api) {
			return e.Reason, true
		}
	}
	return "", false
}

// registry of workload descriptors.
var (
	regMu    sync.RWMutex
	registry = map[string]*Descriptor{}
)

// Register adds a workload descriptor to the suite. Workload packages call
// this from init; an invalid descriptor or a duplicate name panics, as that is
// a programming error.
func Register(d Descriptor) {
	if err := d.validate(); err != nil {
		panic(err.Error())
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[d.Name]; dup {
		panic(fmt.Sprintf("core: benchmark %q registered twice", d.Name))
	}
	registry[d.Name] = &d
}

// Describe returns the descriptor registered under name.
func Describe(name string) (*Descriptor, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	d, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown benchmark %q", name)
	}
	return d, nil
}

// Descriptors returns every registered descriptor sorted by name.
func Descriptors() []*Descriptor {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]*Descriptor, 0, len(registry))
	for _, d := range registry {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByFamily returns the family's descriptors in figure order (rank, then name).
func ByFamily(f Family) []*Descriptor {
	all := Descriptors()
	out := make([]*Descriptor, 0, len(all))
	for _, d := range all {
		if d.Family == f {
			out = append(out, d)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// FamilyNames returns the family's workload names alphabetically (the order of
// Table I).
func FamilyNames(f Family) []string {
	all := Descriptors() // already name-sorted
	out := make([]string, 0, len(all))
	for _, d := range all {
		if d.Family == f {
			out = append(out, d.Name)
		}
	}
	return out
}

// FigureOrder returns the family's workload names in figure-axis order.
func FigureOrder(f Family) []string {
	ds := ByFamily(f)
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	return out
}

// registered adapts a Descriptor to the Benchmark interface the runner and
// experiments consume.
type registered struct{ d *Descriptor }

func (r registered) Name() string   { return r.d.Name }
func (r registered) APIs() []hw.API { return append([]hw.API(nil), r.d.APIs...) }

func (r registered) Workloads(class hw.Class) []Workload { return r.d.Workloads(class) }

func (r registered) Run(ctx *RunContext) (*Result, error) { return r.d.Run(ctx) }

// Get returns the benchmark with the given name.
func Get(name string) (Benchmark, error) {
	d, err := Describe(name)
	if err != nil {
		return nil, err
	}
	return registered{d}, nil
}

// All returns every registered benchmark sorted by name.
func All() []Benchmark {
	ds := Descriptors()
	out := make([]Benchmark, len(ds))
	for i, d := range ds {
		out[i] = registered{d}
	}
	return out
}

// Names returns the sorted names of all registered benchmarks.
func Names() []string {
	ds := Descriptors()
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = d.Name
	}
	return names
}

// ExtraBandwidthGBps is the Result.Extra key under which bandwidth-oriented
// workloads report achieved GB/s (useful bytes over kernel time).
const ExtraBandwidthGBps = "bandwidth_gbps"
