// Package hotspot implements the Hotspot thermal simulation benchmark of
// Table I (dwarf: Structured Grid, domain: Physics). It estimates processor
// temperature on a 2-D grid from per-cell power and the temperatures of the
// four neighbours, iterating a fixed number of simulation steps with
// ping-ponged temperature buffers.
//
// The per-step data dependency makes it one of the iterative workloads where
// the paper's single-command-buffer Vulkan optimisation pays off most.
package hotspot

import (
	"fmt"
	"math"

	"vcomputebench/internal/bench"
	"vcomputebench/internal/core"
	"vcomputebench/internal/glsl"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/rodinia"
)

const kernelName = "hotspot_kernel"

// Physical constants of the Rodinia hotspot model (scaled).
const (
	maxPD     = 3.0e6
	precision = 0.001
	specHeat  = 1.75e6
	kSi       = 100.0
	factor    = 0.5
	chipH     = 0.016
	chipW     = 0.016
	tAmb      = 80.0
)

func init() {
	kernels.MustRegister(&kernels.Program{
		Name:              kernelName,
		LocalSize:         kernels.D2(16, 16),
		Bindings:          3,
		PushConstantWords: 5,
		Fn:                hotspotKernel,
	})
	glsl.RegisterSource(kernelName, glslHotspot)
	core.Register(core.Descriptor{
		Name:        "hotspot",
		Family:      core.FamilyRodinia,
		Application: "Thermal simulation estimating processor temperature from a floor plan and power trace (Rodinia hotspot)",
		Dwarf:       "Structured Grid",
		Domain:      "Physics",
		Rank:        4,
		APIs:        hw.AllAPIs(),
		Workloads:   workloads,
		Run:         run,
	})
}

// hotspotKernel advances the temperature grid by one step.
// Push constants: n, stepBits, capBits, rxBits, rzBits (floats as bits).
func hotspotKernel(wg *kernels.Workgroup) {
	n := int(wg.PushU32(0))
	step := wg.PushF32(1)
	cap := wg.PushF32(2)
	rxInv := wg.PushF32(3)
	rzInv := wg.PushF32(4)
	power := wg.Buffer(0)
	tin := wg.Buffer(1)
	tout := wg.Buffer(2)
	wg.ForEach(func(inv *kernels.Invocation) {
		x := inv.GlobalX()
		y := inv.GlobalY()
		if x >= n || y >= n {
			return
		}
		idx := y*n + x
		c := tin.LoadF32(inv, idx)
		north := c
		if y > 0 {
			north = tin.LoadF32(inv, idx-n)
		}
		south := c
		if y < n-1 {
			south = tin.LoadF32(inv, idx+n)
		}
		west := c
		if x > 0 {
			west = tin.LoadF32(inv, idx-1)
		}
		east := c
		if x < n-1 {
			east = tin.LoadF32(inv, idx+1)
		}
		p := power.LoadF32(inv, idx)
		delta := (step / cap) * (p + (north+south-2*c)*rzInv + (east+west-2*c)*rxInv + (tAmb-c)*rzInv)
		tout.StoreF32(inv, idx, c+delta)
		inv.ALU(14)
	})
}

// stepParams computes the simulation coefficients for a grid of order n.
func stepParams(n int) (step, cap, rxInv, rzInv float32) {
	gridH := chipH / float64(n)
	gridW := chipW / float64(n)
	capF := factor * specHeat * 0.0005 * gridW * gridH
	rx := gridW / (2.0 * kSi * 0.0005 * gridH)
	rz := 0.0005 / (kSi * gridH * gridW)
	maxSlope := maxPD / (factor * 0.0005 * specHeat)
	stepF := precision / maxSlope
	return float32(stepF), float32(capF), float32(1.0 / rx), float32(1.0 / rz)
}

type algorithm struct {
	n     int
	iters int
	temp  kernels.Words
	power kernels.Words
}

func (h *algorithm) Buffers() []rodinia.BufferSpec {
	return []rodinia.BufferSpec{
		{Name: "power", Init: h.power},
		{Name: "tempA", Init: h.temp},
		{Name: "tempB", Words: h.n * h.n},
	}
}

func (h *algorithm) Kernels() []string { return []string{kernelName} }

func (h *algorithm) NextPhase(phase int, io rodinia.IO) ([]rodinia.Step, error) {
	if phase > 0 {
		return nil, nil
	}
	step, cap, rxInv, rzInv := stepParams(h.n)
	push := kernels.Words{
		uint32(h.n),
		math.Float32bits(step),
		math.Float32bits(cap),
		math.Float32bits(rxInv),
		math.Float32bits(rzInv),
	}
	groups := kernels.D2((h.n+15)/16, (h.n+15)/16)
	var steps []rodinia.Step
	src, dst := 1, 2
	for it := 0; it < h.iters; it++ {
		steps = append(steps, rodinia.Step{
			Kernel:    kernelName,
			Groups:    groups,
			Buffers:   []int{0, src, dst},
			Push:      push,
			SyncAfter: true,
		})
		src, dst = dst, src
	}
	return steps, nil
}

// finalBuffer returns the index of the buffer holding the result after iters
// ping-pong steps.
func (h *algorithm) finalBuffer() int {
	if h.iters%2 == 1 {
		return 2
	}
	return 1
}

// reference advances the same model on the CPU.
func reference(n, iters int, temp, power []float32) []float32 {
	step, cap, rxInv, rzInv := stepParams(n)
	src := append([]float32(nil), temp...)
	dst := make([]float32, len(temp))
	for it := 0; it < iters; it++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				idx := y*n + x
				c := src[idx]
				north, south, west, east := c, c, c, c
				if y > 0 {
					north = src[idx-n]
				}
				if y < n-1 {
					south = src[idx+n]
				}
				if x > 0 {
					west = src[idx-1]
				}
				if x < n-1 {
					east = src[idx+1]
				}
				delta := (step / cap) * (power[idx] + (north+south-2*c)*rzInv + (east+west-2*c)*rxInv + (tAmb-c)*rzInv)
				dst[idx] = c + delta
			}
		}
		src, dst = dst, src
	}
	return src
}

// workloads: Desktop labels follow the paper's
// 512-08 / 512-16 / 512-32 (grid order - pyramid height); the number of
// simulated steps is four times the pyramid height.
func workloads(class hw.Class) []core.Workload {
	if class == hw.ClassMobile {
		return []core.Workload{
			{Label: "128", Params: map[string]int{"n": 128, "iterations": 16}},
			{Label: "256", Params: map[string]int{"n": 256, "iterations": 32}},
		}
	}
	return []core.Workload{
		{Label: "512-08", Params: map[string]int{"n": 512, "iterations": 32}},
		{Label: "512-16", Params: map[string]int{"n": 512, "iterations": 64}},
		{Label: "512-32", Params: map[string]int{"n": 512, "iterations": 128}},
	}
}

func run(ctx *core.RunContext) (*core.Result, error) {
	n := ctx.Workload.Param("n", 512)
	iters := ctx.Workload.Param("iterations", 32)
	temp := ctx.RandomF32(ctx.Seed, n*n, 323, 342)
	power := ctx.RandomF32(ctx.Seed+1, n*n, 0, 1)
	alg := &algorithm{n: n, iters: iters, temp: temp, power: power}

	out, err := rodinia.Run(ctx, alg, []int{alg.finalBuffer()})
	if err != nil {
		return nil, err
	}
	result := kernels.WordsToF32(out.Buffers[alg.finalBuffer()])

	if ctx.Validate {
		want := reference(n, iters, kernels.WordsToF32(temp), kernels.WordsToF32(power))
		for i := range want {
			if bench.AbsDiff(result[i], want[i]) > 1e-2 {
				return nil, fmt.Errorf("hotspot: cell %d = %v, want %v", i, result[i], want[i])
			}
		}
	}
	return &core.Result{
		KernelTime: out.KernelTime,
		TotalTime:  ctx.Now(),
		Dispatches: out.Dispatches,
		Checksum:   core.ChecksumF32(result),
	}, nil
}

const glslHotspot = `#version 450
layout(local_size_x = 16, local_size_y = 16) in;
layout(std430, set = 0, binding = 0) buffer Power { float power[]; };
layout(std430, set = 0, binding = 1) buffer TIn   { float t_in[]; };
layout(std430, set = 0, binding = 2) buffer TOut  { float t_out[]; };
layout(push_constant) uniform Params { uint n; float step; float cap; float rx_inv; float rz_inv; } p;
void main() {
    uint x = gl_GlobalInvocationID.x, y = gl_GlobalInvocationID.y;
    if (x >= p.n || y >= p.n) return;
    uint idx = y * p.n + x;
    float c = t_in[idx];
    float north = (y > 0)       ? t_in[idx - p.n] : c;
    float south = (y < p.n - 1) ? t_in[idx + p.n] : c;
    float west  = (x > 0)       ? t_in[idx - 1]   : c;
    float east  = (x < p.n - 1) ? t_in[idx + 1]   : c;
    float delta = (p.step / p.cap) * (power[idx] + (north + south - 2.0*c) * p.rz_inv
                 + (east + west - 2.0*c) * p.rx_inv + (80.0 - c) * p.rz_inv);
    t_out[idx] = c + delta;
}
`
