package rodinia_test

import (
	"testing"

	"vcomputebench/internal/core"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/rodinia/suite"
)

// smallWorkloads gives every Rodinia benchmark a quick configuration suitable
// for functional cross-API validation.
var smallWorkloads = map[string]core.Workload{
	"backprop":   {Label: "test", Params: map[string]int{"n": 2048}},
	"bfs":        {Label: "test", Params: map[string]int{"nodes": 4096}},
	"cfd":        {Label: "test", Params: map[string]int{"nelr": 4096, "iterations": 4}},
	"gaussian":   {Label: "test", Params: map[string]int{"n": 96}},
	"hotspot":    {Label: "test", Params: map[string]int{"n": 64, "iterations": 8}},
	"lud":        {Label: "test", Params: map[string]int{"n": 64}},
	"nn":         {Label: "test", Params: map[string]int{"n": 8192}},
	"nw":         {Label: "test", Params: map[string]int{"n": 128}},
	"pathfinder": {Label: "test", Params: map[string]int{"cols": 2048, "rows": 20}},
}

// TestRodiniaValidatesAgainstCPUReference runs every benchmark with every API
// on the NVIDIA desktop profile, validating device output against the CPU
// reference and checking cross-API agreement, mirroring the paper's
// methodology of validating the Vulkan ports against the CUDA and OpenCL
// outputs.
func TestRodiniaValidatesAgainstCPUReference(t *testing.T) {
	p := platforms.GTX1050Ti()
	runner := &core.Runner{Repetitions: 1, Seed: 11, Validate: true}
	benchmarks, err := suite.Rodinia()
	if err != nil {
		t.Fatalf("suite: %v", err)
	}
	for _, b := range benchmarks {
		wl, ok := smallWorkloads[b.Name()]
		if !ok {
			t.Fatalf("no test workload for %s", b.Name())
		}
		checksums := map[hw.API]float64{}
		for _, api := range hw.AllAPIs() {
			res, err := runner.Run(p, b, api, wl)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name(), api, err)
			}
			if res.KernelTime <= 0 {
				t.Errorf("%s/%s: kernel time is not positive", b.Name(), api)
			}
			if res.Dispatches <= 0 {
				t.Errorf("%s/%s: no dispatches recorded", b.Name(), api)
			}
			checksums[api] = res.Checksum
		}
		if checksums[hw.APIVulkan] != checksums[hw.APICUDA] || checksums[hw.APIVulkan] != checksums[hw.APIOpenCL] {
			t.Errorf("%s: outputs differ across APIs: %v", b.Name(), checksums)
		}
	}
}

// TestIterativeBenchmarksFavourVulkan checks the paper's central result on the
// desktop platform: the iterative, launch-bound workloads (pathfinder,
// hotspot, lud, gaussian) run faster under Vulkan than under OpenCL, while the
// memory-bound bfs shows a slowdown due to the less mature Vulkan compiler
// (§V-A2).
func TestIterativeBenchmarksFavourVulkan(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping speedup shape test in -short mode")
	}
	p := platforms.GTX1050Ti()
	runner := &core.Runner{Repetitions: 1, Seed: 11}
	speedup := func(name string, wl core.Workload) float64 {
		b, err := core.Get(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cl, err := runner.Run(p, b, hw.APIOpenCL, wl)
		if err != nil {
			t.Fatalf("%s/opencl: %v", name, err)
		}
		vk, err := runner.Run(p, b, hw.APIVulkan, wl)
		if err != nil {
			t.Fatalf("%s/vulkan: %v", name, err)
		}
		return float64(cl.KernelTime) / float64(vk.KernelTime)
	}

	for _, name := range []string{"pathfinder", "hotspot", "lud", "gaussian"} {
		wl := smallWorkloads[name]
		if s := speedup(name, wl); s <= 1.0 {
			t.Errorf("%s: expected Vulkan speedup > 1 over OpenCL, got %.2f", name, s)
		}
	}
	if s := speedup("bfs", smallWorkloads["bfs"]); s >= 1.0 {
		t.Errorf("bfs: expected Vulkan slowdown (< 1) vs OpenCL, got %.2f", s)
	}
}

// TestMobileQuirksExcludeCombinations verifies the paper's reported failures
// are reproduced as exclusions rather than crashes.
func TestMobileQuirksExcludeCombinations(t *testing.T) {
	runner := core.NewRunner()
	nexus := platforms.PowerVRG6430()
	cfd, err := core.Get("cfd")
	if err != nil {
		t.Fatal(err)
	}
	wl := smallWorkloads["cfd"]
	if _, err := runner.Run(nexus, cfd, hw.APIVulkan, wl); err == nil {
		t.Fatalf("cfd on Nexus should be excluded")
	}
	bp, err := core.Get("backprop")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(nexus, bp, hw.APIOpenCL, smallWorkloads["backprop"]); err == nil {
		t.Fatalf("backprop on Nexus should be excluded")
	}
	snap := platforms.Adreno506()
	lud, err := core.Get("lud")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(snap, lud, hw.APIOpenCL, smallWorkloads["lud"]); err == nil {
		t.Fatalf("lud/OpenCL on Snapdragon should be excluded")
	}
	if _, err := runner.Run(snap, lud, hw.APIVulkan, smallWorkloads["lud"]); err != nil {
		t.Fatalf("lud/Vulkan on Snapdragon should run: %v", err)
	}
	cuda, err := core.Get("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(snap, cuda, hw.APICUDA, core.Workload{Label: "t", Params: map[string]int{"n": 1024}}); err == nil {
		t.Fatalf("CUDA should be unsupported on mobile platforms")
	}
}

// TestTable1Metadata checks the Table I dwarf/domain classification.
func TestTable1Metadata(t *testing.T) {
	want := map[string][2]string{
		"backprop":   {"Unstructured Grid", "Deep Learning"},
		"bfs":        {"Graph Traversal", "Graph Theory"},
		"cfd":        {"Unstructured Grid", "Fluid Dynamics"},
		"gaussian":   {"Dense Linear Algebra", "Linear Algebra"},
		"hotspot":    {"Structured Grid", "Physics"},
		"lud":        {"Dense Linear Algebra", "Linear Algebra"},
		"nn":         {"Dense Linear Algebra", "Data Mining"},
		"nw":         {"Dynamic Programming", "Bioinformatics"},
		"pathfinder": {"Dynamic Programming", "Grid Traversal"},
	}
	for name, dw := range want {
		d, err := core.Describe(name)
		if err != nil {
			t.Fatalf("%s not registered: %v", name, err)
		}
		if d.Dwarf != dw[0] {
			t.Errorf("%s dwarf = %q, want %q", name, d.Dwarf, dw[0])
		}
		if d.Domain != dw[1] {
			t.Errorf("%s domain = %q, want %q", name, d.Domain, dw[1])
		}
		if len(d.Workloads(hw.ClassDesktop)) == 0 || len(d.Workloads(hw.ClassMobile)) == 0 {
			t.Errorf("%s must define desktop and mobile workloads", name)
		}
	}
}
