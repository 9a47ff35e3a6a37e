package core_test

import (
	"reflect"
	"strings"
	"testing"

	"vcomputebench/internal/core"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"

	// Populate the registry with the full workload zoo.
	_ "vcomputebench/internal/rodinia/suite"
)

// paperSuite is the paper's Table I benchmark list. The rodinia family must be
// exactly this set: the figure and check machinery assumes nothing was added to
// or removed from the published suite.
var paperSuite = []string{
	"backprop", "bfs", "cfd", "gaussian", "hotspot", "lud", "nn", "nw", "pathfinder",
}

// TestRegistryInvariants pins the structural properties every consumer of the
// registry relies on: the rodinia family is exactly the nine paper workloads,
// ranks are contiguous and unique within each family, Table I metadata is
// present, and each descriptor's workload lists are non-empty with unique
// labels per class.
func TestRegistryInvariants(t *testing.T) {
	if got := core.FamilyNames(core.FamilyRodinia); !equal(got, paperSuite) {
		t.Fatalf("rodinia family = %v, want the paper's nine workloads %v", got, paperSuite)
	}
	for _, fam := range core.Families() {
		ds := core.ByFamily(fam)
		ranks := map[int]string{}
		for _, d := range ds {
			if prev, dup := ranks[d.Rank]; dup {
				t.Errorf("%s: rank %d used by both %s and %s", fam, d.Rank, prev, d.Name)
			}
			ranks[d.Rank] = d.Name
			if d.Rank >= len(ds) {
				t.Errorf("%s/%s: rank %d not contiguous in a family of %d", fam, d.Name, d.Rank, len(ds))
			}
		}
		// ByFamily must present the family in ascending rank order, and
		// FigureOrder must be its name projection.
		order := core.FigureOrder(fam)
		for i, d := range ds {
			if i > 0 && ds[i-1].Rank > d.Rank {
				t.Errorf("%s: ByFamily out of rank order at %s", fam, d.Name)
			}
			if order[i] != d.Name {
				t.Errorf("%s: FigureOrder[%d] = %s, want %s", fam, i, order[i], d.Name)
			}
		}
	}
	for _, d := range core.Descriptors() {
		if d.Application == "" || d.Dwarf == "" || d.Domain == "" {
			t.Errorf("%s: missing Table I metadata", d.Name)
		}
		if len(d.APIs) == 0 {
			t.Errorf("%s: implements no APIs", d.Name)
		}
		for _, api := range d.APIs {
			if !d.Implements(api) {
				t.Errorf("%s: Implements(%s) = false for a listed API", d.Name, api)
			}
		}
		for _, class := range []hw.Class{hw.ClassDesktop, hw.ClassMobile} {
			ws := d.Workloads(class)
			if len(ws) == 0 {
				t.Errorf("%s: no %s workloads", d.Name, class)
			}
			labels := map[string]bool{}
			for _, w := range ws {
				if w.Label == "" {
					t.Errorf("%s: %s workload without a label", d.Name, class)
				}
				if labels[w.Label] {
					t.Errorf("%s: duplicate %s workload label %q", d.Name, class, w.Label)
				}
				labels[w.Label] = true
			}
		}
	}
}

// TestRegistryMatchesBenchmarkView: the Benchmark adapters returned by Get/All
// must present exactly the descriptor's name, APIs and workloads. The
// adapter builds each class's workload list once and hands out copies, so a
// caller that overwrites its list leaves the next caller's alone.
func TestRegistryMatchesBenchmarkView(t *testing.T) {
	for _, d := range core.Descriptors() {
		b, err := core.Get(d.Name)
		if err != nil {
			t.Fatalf("Get(%s): %v", d.Name, err)
		}
		if b.Name() != d.Name {
			t.Errorf("%s: Benchmark view is named %q", d.Name, b.Name())
		}
		if len(b.APIs()) != len(d.APIs) {
			t.Errorf("%s: Benchmark view lists %d APIs, descriptor %d", d.Name, len(b.APIs()), len(d.APIs))
		}
		for _, class := range []hw.Class{hw.ClassDesktop, hw.ClassMobile} {
			want := d.Workloads(class)
			got := b.Workloads(class)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: Benchmark view lists workloads %v, descriptor %v", d.Name, class, got, want)
			}
			if len(got) > 0 {
				got[0] = core.Workload{Label: "overwritten"}
			}
			if again := b.Workloads(class); !reflect.DeepEqual(again, want) {
				t.Errorf("%s/%s: overwriting one caller's workload list changed the next: %v", d.Name, class, again)
			}
		}
	}
	if _, err := core.Get("no-such-benchmark"); err == nil {
		t.Error("Get of an unregistered benchmark did not fail")
	}
	if _, err := core.Describe("no-such-benchmark"); err == nil {
		t.Error("Describe of an unregistered benchmark did not fail")
	}
}

// TestDescriptorExclusionsMirrorQuirks: descriptors and platform quirks record
// the same Table IV facts; neither view may drift from the other.
func TestDescriptorExclusionsMirrorQuirks(t *testing.T) {
	type fact struct {
		platform, benchmark string
		api                 hw.API
	}
	fromDescriptors := map[fact]string{}
	for _, d := range core.Descriptors() {
		for _, e := range d.Exclusions {
			fromDescriptors[fact{e.Platform, d.Name, e.API}] = e.Reason
		}
	}
	fromQuirks := map[fact]string{}
	for _, p := range platforms.All() {
		for _, q := range p.Quirks {
			fromQuirks[fact{p.ID, q.Benchmark, q.API}] = q.Reason
		}
	}
	for f, reason := range fromDescriptors {
		if got, ok := fromQuirks[f]; !ok {
			t.Errorf("descriptor exclusion %+v has no platform quirk", f)
		} else if got != reason {
			t.Errorf("%+v: descriptor reason %q != quirk reason %q", f, reason, got)
		}
	}
	for f := range fromQuirks {
		if _, ok := fromDescriptors[f]; !ok {
			t.Errorf("platform quirk %+v not mirrored by a descriptor exclusion", f)
		}
	}
}

// TestRegisterRejectsInvalid: Register must panic on duplicates and on
// descriptors with missing required fields, because both are programming
// errors that would otherwise surface as silently missing benchmarks.
func TestRegisterRejectsInvalid(t *testing.T) {
	mustPanic := func(name, fragment string, d core.Descriptor) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: Register did not panic", name)
				return
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, fragment) {
				t.Errorf("%s: panic %v does not mention %q", name, r, fragment)
			}
		}()
		core.Register(d)
	}
	valid := core.Descriptor{
		Name: "descriptor-test-valid", Family: core.FamilyExtension,
		Application: "a", Dwarf: "d", Domain: "m", APIs: hw.AllAPIs(),
		Workloads: func(hw.Class) []core.Workload { return nil },
		Run:       func(*core.RunContext) (*core.Result, error) { return nil, nil },
	}

	dup := valid
	dup.Name = "bfs" // already registered by the suite
	mustPanic("duplicate", "registered twice", dup)

	noFamily := valid
	noFamily.Family = "alien"
	mustPanic("unknown family", "unknown family", noFamily)

	noMeta := valid
	noMeta.Dwarf = ""
	mustPanic("missing metadata", "Table I metadata", noMeta)

	noAPIs := valid
	noAPIs.APIs = nil
	mustPanic("no APIs", "no APIs", noAPIs)

	noRun := valid
	noRun.Run = nil
	mustPanic("no run", "no run function", noRun)
}

// TestTrafficModels validates the simulator's memory counters against each
// descriptor's analytic traffic model, on every platform and every supported,
// non-excluded API. The smallest mobile workload keeps every dispatch under
// the counter-sampling threshold, so the comparison is exact: any divergence
// is either a kernel touching memory it should not, or a wrong model.
func TestTrafficModels(t *testing.T) {
	tested := 0
	for _, d := range core.Descriptors() {
		if d.Traffic == nil {
			continue
		}
		d := d
		w := d.Workloads(hw.ClassMobile)[0]
		want := d.Traffic(w)
		b, err := core.Get(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range platforms.All() {
			for _, api := range d.APIs {
				if !p.Profile.Supports(api) {
					continue
				}
				if _, excluded := d.ExcludedOn(p.ID, api); excluded {
					continue
				}
				p, api := p, api
				t.Run(d.Name+"/"+p.ID+"/"+api.String(), func(t *testing.T) {
					t.Parallel()
					got, dispatches, err := core.TraceCounters(p, b, api, w, 42)
					if err != nil {
						t.Fatal(err)
					}
					if dispatches != want.Dispatches {
						t.Errorf("dispatches = %d, want %d", dispatches, want.Dispatches)
					}
					if got.GlobalLoadBytes != want.GlobalLoadBytes {
						t.Errorf("global load bytes = %v, want %v", got.GlobalLoadBytes, want.GlobalLoadBytes)
					}
					if got.GlobalStoreBytes != want.GlobalStoreBytes {
						t.Errorf("global store bytes = %v, want %v", got.GlobalStoreBytes, want.GlobalStoreBytes)
					}
				})
				tested++
			}
		}
	}
	if tested == 0 {
		t.Fatal("no traffic models exercised; every descriptor lost its model?")
	}
	// The three extension workloads and vectoradd must all carry models: the
	// seam the extensions prove includes counter validation.
	for _, name := range []string{"gemm", "reduction", "srad", "vectoradd"} {
		d, err := core.Describe(name)
		if err != nil {
			t.Fatal(err)
		}
		if d.Traffic == nil {
			t.Errorf("%s: no traffic model", name)
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
