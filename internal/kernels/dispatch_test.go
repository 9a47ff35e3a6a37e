package kernels_test

import (
	"fmt"
	"runtime"
	"testing"

	"vcomputebench/internal/kernels"
)

// mixedKernel exercises every counter source: global loads and stores with a
// push-selectable stride (to vary coalescing), ALU ops, local ops, shared
// memory and a barrier-separated second phase.
func mixedKernel(wg *kernels.Workgroup) {
	stride := int(wg.PushU32(0))
	in := wg.Buffer(0)
	out := wg.Buffer(1)
	shared := wg.SharedF32(wg.LocalSize().Count())
	n := in.Len()
	wg.ForEach(func(inv *kernels.Invocation) {
		idx := (inv.GlobalX() * stride) % n
		shared[inv.LocalIndex()] = in.LoadF32(inv, idx)
		wg.LocalOp(1)
		inv.ALU(2)
	})
	wg.Barrier()
	wg.ForEach(func(inv *kernels.Invocation) {
		out.StoreF32(inv, inv.GlobalX()%n, shared[inv.LocalIndex()])
		wg.LocalOp(1)
	})
}

func mixedProgram(exact bool) *kernels.Program {
	return &kernels.Program{
		Name:      "test_mixed",
		LocalSize: kernels.D1(64),
		Bindings:  2,
		Exact:     exact,
		Fn:        mixedKernel,
	}
}

func mixedConfig(groups, stride, parallelism, maxExact int) kernels.DispatchConfig {
	n := groups * 64
	in := make(kernels.Words, n)
	for i := range in {
		in[i] = uint32(i)
	}
	return kernels.DispatchConfig{
		Groups:              kernels.D1(groups),
		Buffers:             []kernels.Words{in, make(kernels.Words, n)},
		Push:                kernels.Words{uint32(stride)},
		Parallelism:         parallelism,
		MaxExactInvocations: maxExact,
	}
}

// TestCountersIdenticalAcrossParallelism is the regression test for the
// worker-count-dependent sampling bug: sampled workgroups are now selected
// deterministically from the grid, so every counter — including the sampled
// coalescing statistics — must be bit-identical for any Parallelism, for both
// exact and sampled dispatches.
func TestCountersIdenticalAcrossParallelism(t *testing.T) {
	cases := []struct {
		name     string
		exact    bool
		maxExact int
	}{
		// 96 groups * 64 invocations = 6144 > 1024: stride 6, sampled.
		{name: "sampled", exact: false, maxExact: 1024},
		{name: "exact", exact: true, maxExact: 1024},
	}
	parallelisms := []int{1, 2, 8, runtime.NumCPU()}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := mixedProgram(tc.exact)
			var want *kernels.Counters
			for _, par := range parallelisms {
				got, _, _, err := kernels.Execute(p, mixedConfig(96, 3, par, tc.maxExact))
				if err != nil {
					t.Fatalf("Execute(parallelism=%d): %v", par, err)
				}
				if want == nil {
					want = got
					continue
				}
				if *got != *want {
					t.Errorf("counters differ between parallelism %d and 1:\n  got  %+v\n  want %+v",
						par, *got, *want)
				}
			}
			if want.SampledUsefulBytes <= 0 || want.SampledTransactionBytes <= 0 {
				t.Fatalf("no coalescing sample recorded: %+v", *want)
			}
		})
	}
}

// TestSampledDispatchExtrapolates checks the sampling contract: a dispatch
// over the exact-invocation cap executes a subset of workgroups and scales
// the extensive counters back to the full grid.
func TestSampledDispatchExtrapolates(t *testing.T) {
	p := mixedProgram(false)
	got, _, _, err := kernels.Execute(p, mixedConfig(96, 1, 4, 1024))
	if err != nil {
		t.Fatal(err)
	}
	if got.SampleScale <= 1 {
		t.Fatalf("SampleScale = %v, want > 1 for a sampled dispatch", got.SampleScale)
	}
	// 96 groups of 64 invocations and two ForEach phases, extrapolated: the
	// counters must equal the full-grid totals exactly (the executed-group
	// count divides the grid).
	wantInv := float64(2 * 96 * 64)
	if got.Invocations != wantInv {
		t.Errorf("Invocations = %v, want %v", got.Invocations, wantInv)
	}
	wantLoads := float64(96 * 64) // one load per invocation, first phase only
	if got.GlobalLoads != wantLoads || got.GlobalLoadBytes != 4*wantLoads {
		t.Errorf("loads = %v (%v bytes), want %v (%v bytes)",
			got.GlobalLoads, got.GlobalLoadBytes, wantLoads, 4*wantLoads)
	}
}

// TestCoalescingRecorder checks the recorder against hand-computed line
// counts: a unit-stride float read by a 32-wide warp touches 2 64-byte lines
// (efficiency 1), while a 16-word stride gives every lane its own line
// (efficiency 1/16).
func TestCoalescingRecorder(t *testing.T) {
	cases := []struct {
		stride   int
		wantEff  float64
		wantUses float64 // useful bytes per warp access: 32 lanes * 4 bytes
	}{
		{stride: 1, wantEff: 1, wantUses: 128},
		{stride: 16, wantEff: 1.0 / 16.0, wantUses: 128},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("stride%d", tc.stride), func(t *testing.T) {
			n := 2048
			in := make(kernels.Words, n)
			prog := &kernels.Program{
				Name:      "test_coalesce",
				LocalSize: kernels.D1(32),
				Bindings:  1,
				Fn: func(wg *kernels.Workgroup) {
					stride := int(wg.PushU32(0))
					buf := wg.Buffer(0)
					wg.ForEach(func(inv *kernels.Invocation) {
						buf.LoadF32(inv, (inv.GlobalX()*stride)%n)
					})
				},
			}
			got, _, _, err := kernels.Execute(prog, kernels.DispatchConfig{
				Groups:         kernels.D1(1),
				Buffers:        []kernels.Words{in},
				Push:           kernels.Words{uint32(tc.stride)},
				WarpSize:       32,
				CacheLineBytes: 64,
				Parallelism:    1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got.SampledUsefulBytes != tc.wantUses {
				t.Errorf("SampledUsefulBytes = %v, want %v", got.SampledUsefulBytes, tc.wantUses)
			}
			if eff := got.CoalescingEfficiency(); eff != tc.wantEff {
				t.Errorf("CoalescingEfficiency = %v, want %v", eff, tc.wantEff)
			}
		})
	}
}

// TestSharedMemoryRecycledZeroed locks in the shared-memory pool contract:
// arrays are recycled between workgroups but always handed out zeroed, and
// SharedBytesPerGroup reports the maximum footprint of any workgroup.
func TestSharedMemoryRecycledZeroed(t *testing.T) {
	var dirty int
	prog := &kernels.Program{
		Name:      "test_shared",
		LocalSize: kernels.D1(16),
		Bindings:  0,
		Fn: func(wg *kernels.Workgroup) {
			// Group 0 allocates a second, larger array so the max semantics
			// are observable; every group poisons its arrays so reuse without
			// zeroing is caught on the next workgroup.
			f := wg.SharedF32(16)
			i := wg.SharedI32(8)
			for k := range f {
				if f[k] != 0 {
					dirty++
				}
				f[k] = 42
			}
			for k := range i {
				if i[k] != 0 {
					dirty++
				}
				i[k] = -7
			}
			if wg.ID().X == 0 {
				extra := wg.SharedF32(64)
				for k := range extra {
					if extra[k] != 0 {
						dirty++
					}
					extra[k] = 1
				}
			}
		},
	}
	got, _, _, err := kernels.Execute(prog, kernels.DispatchConfig{
		Groups:      kernels.D1(32),
		Parallelism: 1, // serial so every workgroup reuses the same pool
	})
	if err != nil {
		t.Fatal(err)
	}
	if dirty != 0 {
		t.Fatalf("%d shared-memory elements were handed out non-zero", dirty)
	}
	// Group 0: 16*4 + 8*4 + 64*4 = 352 bytes; every other group 96 bytes.
	if got.SharedBytesPerGroup != 352 {
		t.Fatalf("SharedBytesPerGroup = %v, want 352 (max over workgroups)", got.SharedBytesPerGroup)
	}
}

// TestExecuteBindingMasks: Execute reports exactly the bindings the kernel
// loaded from and stored to, up to the last of MaxBindings, and rejects a
// dispatch that binds more.
func TestExecuteBindingMasks(t *testing.T) {
	prog := &kernels.Program{
		Name:      "test_binding_masks",
		LocalSize: kernels.D1(64),
		Fn: func(wg *kernels.Workgroup) {
			in, out := wg.Buffer(kernels.MaxBindings-1), wg.Buffer(kernels.MaxBindings-2)
			wg.ForEach(func(inv *kernels.Invocation) {
				out.StoreU32(inv, inv.GlobalX(), in.LoadU32(inv, inv.GlobalX()))
			})
		},
	}
	buffers := make([]kernels.Words, kernels.MaxBindings+1)
	for i := range buffers {
		buffers[i] = make(kernels.Words, 64)
	}
	_, stored, loaded, err := kernels.Execute(prog, kernels.DispatchConfig{Groups: kernels.D1(1), Buffers: buffers[:kernels.MaxBindings]})
	if err != nil {
		t.Fatal(err)
	}
	if stored != 1<<(kernels.MaxBindings-2) || loaded != 1<<(kernels.MaxBindings-1) {
		t.Fatalf("stored %#x, loaded %#x; want bits 62 and 63 alone", stored, loaded)
	}
	if _, _, _, err := kernels.Execute(prog, kernels.DispatchConfig{Groups: kernels.D1(1), Buffers: buffers}); err == nil {
		t.Fatalf("a dispatch binding %d buffers executed", len(buffers))
	}
}
