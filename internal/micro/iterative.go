package micro

import (
	"fmt"

	"vcomputebench/internal/core"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/rodinia"
)

// IterativeAdd is the workload of the single-command-buffer ablation (§IV-C,
// §VI-B recommendation 1): repeated vector additions with a dependency
// between iterations, recorded into one command buffer with barriers or
// submitted once per iteration. It runs through the runner like any
// benchmark, but it is not registered: it is no paper workload, so the
// suite, Table I and the figures leave it out.
var IterativeAdd core.Benchmark = iterativeAdd{}

type iterativeAdd struct{}

func (iterativeAdd) Name() string { return "iterative-add" }

func (iterativeAdd) APIs() []hw.API { return []hw.API{hw.APIVulkan} }

// Workloads returns the same grid on every device class: 64K elements at 16,
// 64 and 256 iterations, each in one submission ("single") and in one
// submission per iteration ("separate"). The label names the cell in the
// store key, so each workload has its own.
func (iterativeAdd) Workloads(hw.Class) []core.Workload {
	var out []core.Workload
	for _, iters := range []int{16, 64, 256} {
		for separate, mode := range []string{"single", "separate"} {
			out = append(out, core.Workload{
				Label:  fmt.Sprintf("%d-%s", iters, mode),
				Params: map[string]int{"n": 64 << 10, "iterations": iters, "separate": separate},
			})
		}
	}
	return out
}

func (iterativeAdd) Run(ctx *core.RunContext) (*core.Result, error) {
	n := ctx.Workload.Param("n", 64<<10)
	alg := &iterativeAddAlg{
		n:        n,
		iters:    ctx.Workload.Param("iterations", 16),
		separate: ctx.Workload.Param("separate", 0) == 1,
		x:        make([]float32, n),
		y:        make([]float32, n),
	}
	for i := range alg.x {
		alg.x[i] = float32(i%17) * 0.25
		alg.y[i] = float32(i%13) * 0.5
	}
	out, err := rodinia.Run(ctx, alg, nil)
	if err != nil {
		return nil, err
	}
	res := ctx.Result(out.KernelTime)
	res.Dispatches = out.Dispatches
	return res, nil
}

// iterativeAddAlg is one run of IterativeAdd as a rodinia.Algorithm.
type iterativeAddAlg struct {
	n        int
	iters    int
	separate bool
	x, y     []float32
}

func (a *iterativeAddAlg) Buffers() []rodinia.BufferSpec {
	return []rodinia.BufferSpec{
		{Name: "x", Init: kernels.F32ToWords(a.x)},
		{Name: "y", Init: kernels.F32ToWords(a.y)},
		{Name: "z", Words: a.n},
	}
}

func (a *iterativeAddAlg) Kernels() []string { return []string{KernelVectorAdd} }

func (a *iterativeAddAlg) SeparateSubmits() bool { return a.separate }

func (a *iterativeAddAlg) NextPhase(phase int, io rodinia.IO) ([]rodinia.Step, error) {
	if phase > 0 {
		return nil, nil
	}
	var steps []rodinia.Step
	groups := kernels.D1((a.n + 255) / 256)
	for it := 0; it < a.iters; it++ {
		// Alternate z = x + y and x = z + y so every iteration depends on the
		// previous one.
		bufs := []int{0, 1, 2}
		if it%2 == 1 {
			bufs = []int{2, 1, 0}
		}
		steps = append(steps, rodinia.Step{
			Kernel:    KernelVectorAdd,
			Groups:    groups,
			Buffers:   bufs,
			Push:      kernels.Words{uint32(a.n)},
			SyncAfter: true,
		})
	}
	return steps, nil
}
