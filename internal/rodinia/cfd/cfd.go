// Package cfd implements the CFD Solver benchmark of Table I (dwarf:
// Unstructured Grid, domain: Fluid Dynamics): an explicit finite-volume solver
// for compressible flow on an unstructured grid, following the structure of
// the Rodinia euler3d kernels. Every iteration runs three compute-intensive
// kernels — step-factor computation, flux accumulation over the element's four
// neighbours, and the time integration — with a data dependency between
// iterations.
//
// As the paper notes (§V-A2), cfd binds three different pipelines per
// iteration and its iteration count does not grow with the input size, so the
// Vulkan advantage is smaller than for the other iterative workloads. The
// number of solver iterations is scaled down from Rodinia's default to keep
// functional simulation tractable (see EXPERIMENTS.md).
package cfd

import (
	"fmt"
	"math"
	"math/rand"

	"vcomputebench/internal/core"
	"vcomputebench/internal/glsl"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/rodinia"
)

// nVar is the number of conserved variables per element (density, momentum
// x/y/z, energy).
const nVar = 5

// neighbors is the number of faces per element.
const neighbors = 4

// iterations is the number of solver steps simulated (scaled down from
// Rodinia's 2000).
const iterations = 12

// Kernel entry points.
const (
	kernelStepFactor = "cfd_step_factor"
	kernelFlux       = "cfd_compute_flux"
	kernelTimeStep   = "cfd_time_step"
)

func init() {
	kernels.MustRegister(&kernels.Program{
		Name:              kernelStepFactor,
		LocalSize:         kernels.D1(128),
		Bindings:          3,
		ReadOnly:          1<<0 | 1<<1,
		PushConstantWords: 1,
		Fn:                stepFactorKernel,
	})
	glsl.RegisterSource(kernelStepFactor, glslStepFactor)
	kernels.MustRegister(&kernels.Program{
		Name:              kernelFlux,
		LocalSize:         kernels.D1(128),
		Bindings:          4,
		ReadOnly:          1<<0 | 1<<1 | 1<<2,
		PushConstantWords: 1,
		Fn:                fluxKernel,
	})
	glsl.RegisterSource(kernelFlux, glslFlux)
	kernels.MustRegister(&kernels.Program{
		Name:              kernelTimeStep,
		LocalSize:         kernels.D1(128),
		Bindings:          3,
		ReadOnly:          1<<1 | 1<<2,
		PushConstantWords: 1,
		Fn:                timeStepKernel,
	})
	glsl.RegisterSource(kernelTimeStep, glslTimeStep)
	core.Register(core.Descriptor{
		Name:        "cfd",
		Family:      core.FamilyRodinia,
		Application: "Finite-volume solver for compressible flow on an unstructured grid (Rodinia cfd/euler3d)",
		Dwarf:       "Unstructured Grid",
		Domain:      "Fluid Dynamics",
		Rank:        2,
		APIs:        hw.AllAPIs(),
		Workloads:   workloads,
		Exclusions: []core.PaperExclusion{
			{Platform: platforms.IDPowerVR, Reason: "dataset does not fit in device memory (paper §V-B2)"},
			{Platform: platforms.IDAdreno506, Reason: "dataset does not fit in device memory (paper §V-B2)"},
		},
		Run: run,
	})
}

// stepFactorKernel computes the local time-step factor from the element's
// density and area. Bindings: variables, areas, step_factors. Push: nelr.
func stepFactorKernel(wg *kernels.Workgroup) {
	nelr := int(wg.PushU32(0))
	variables := wg.Buffer(0)
	areas := wg.Buffer(1)
	stepFactors := wg.Buffer(2)
	wg.ForEach(func(inv *kernels.Invocation) {
		i := inv.GlobalX()
		if i >= nelr {
			return
		}
		density := variables.LoadF32(inv, i)
		area := areas.LoadF32(inv, i)
		speed := float32(math.Sqrt(float64(absf(density)))) + 1
		sf := float32(0.5) / (float32(math.Sqrt(float64(area))) * speed)
		stepFactors.StoreF32(inv, i, sf)
		inv.ALU(6)
	})
}

// fluxKernel accumulates, for every conserved variable, the weighted
// difference against the element's four neighbours. Bindings: variables,
// neighbours, weights (normals), fluxes. Push: nelr.
func fluxKernel(wg *kernels.Workgroup) {
	nelr := int(wg.PushU32(0))
	variables := wg.Buffer(0)
	elementNeighbors := wg.Buffer(1)
	weights := wg.Buffer(2)
	fluxes := wg.Buffer(3)
	wg.ForEach(func(inv *kernels.Invocation) {
		i := inv.GlobalX()
		if i >= nelr {
			return
		}
		for v := 0; v < nVar; v++ {
			own := variables.LoadF32(inv, v*nelr+i)
			flux := float32(0)
			for nb := 0; nb < neighbors; nb++ {
				id := int(elementNeighbors.LoadU32(inv, nb*nelr+i))
				w := weights.LoadF32(inv, nb*nelr+i)
				other := variables.LoadF32(inv, v*nelr+id)
				flux += w * (other - own)
				inv.ALU(3)
			}
			fluxes.StoreF32(inv, v*nelr+i, flux)
		}
	})
}

// timeStepKernel integrates the variables forward by the local step factor.
// Bindings: variables, step_factors, fluxes. Push: nelr.
func timeStepKernel(wg *kernels.Workgroup) {
	nelr := int(wg.PushU32(0))
	variables := wg.Buffer(0)
	stepFactors := wg.Buffer(1)
	fluxes := wg.Buffer(2)
	wg.ForEach(func(inv *kernels.Invocation) {
		i := inv.GlobalX()
		if i >= nelr {
			return
		}
		sf := stepFactors.LoadF32(inv, i)
		for v := 0; v < nVar; v++ {
			val := variables.LoadF32(inv, v*nelr+i)
			fl := fluxes.LoadF32(inv, v*nelr+i)
			variables.StoreF32(inv, v*nelr+i, val+sf*fl)
			inv.ALU(2)
		}
	})
}

func absf(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}

// mesh holds the generated unstructured grid.
type mesh struct {
	nelr      int
	variables []float32
	areas     []float32
	neighbors []uint32
	weights   []float32
}

// generate builds a random unstructured mesh with four neighbours per
// element, as a stand-in for the Rodinia fvcorr domain files (which are not
// redistributable).
func generate(seed int64, nelr int) *mesh {
	//lint:allow(the mesh seed is a fixed workload constant, so the generated domain is identical every run)
	rng := rand.New(rand.NewSource(seed))
	m := &mesh{
		nelr:      nelr,
		variables: make([]float32, nVar*nelr),
		areas:     make([]float32, nelr),
		neighbors: make([]uint32, neighbors*nelr),
		weights:   make([]float32, neighbors*nelr),
	}
	for i := 0; i < nelr; i++ {
		m.areas[i] = 0.5 + rng.Float32()
		m.variables[i] = 1 + 0.1*rng.Float32()          // density
		m.variables[4*nelr+i] = 2.5 + 0.1*rng.Float32() // energy
		for v := 1; v <= 3; v++ {
			m.variables[v*nelr+i] = 0.1 * rng.Float32() // momentum
		}
		for nb := 0; nb < neighbors; nb++ {
			m.neighbors[nb*nelr+i] = uint32(rng.Intn(nelr))
			m.weights[nb*nelr+i] = 0.01 + 0.05*rng.Float32()
		}
	}
	return m
}

// reference advances the same solver on the CPU.
func reference(m *mesh, iters int) []float32 {
	nelr := m.nelr
	vars := append([]float32(nil), m.variables...)
	fluxes := make([]float32, nVar*nelr)
	sf := make([]float32, nelr)
	for it := 0; it < iters; it++ {
		for i := 0; i < nelr; i++ {
			speed := float32(math.Sqrt(float64(absf(vars[i])))) + 1
			sf[i] = 0.5 / (float32(math.Sqrt(float64(m.areas[i]))) * speed)
		}
		for i := 0; i < nelr; i++ {
			for v := 0; v < nVar; v++ {
				own := vars[v*nelr+i]
				flux := float32(0)
				for nb := 0; nb < neighbors; nb++ {
					id := int(m.neighbors[nb*nelr+i])
					flux += m.weights[nb*nelr+i] * (vars[v*nelr+id] - own)
				}
				fluxes[v*nelr+i] = flux
			}
		}
		for i := 0; i < nelr; i++ {
			for v := 0; v < nVar; v++ {
				vars[v*nelr+i] += sf[i] * fluxes[v*nelr+i]
			}
		}
	}
	return vars
}

type algorithm struct {
	m     *mesh
	iters int
}

// Buffer indices.
const (
	bufVariables = iota
	bufAreas
	bufNeighbors
	bufWeights
	bufStepFactors
	bufFluxes
)

func (c *algorithm) Buffers() []rodinia.BufferSpec {
	nelr := c.m.nelr
	return []rodinia.BufferSpec{
		bufVariables:   {Name: "variables", Init: kernels.F32ToWords(c.m.variables)},
		bufAreas:       {Name: "areas", Init: kernels.F32ToWords(c.m.areas)},
		bufNeighbors:   {Name: "element_neighbors", Init: kernels.U32ToWords(c.m.neighbors)},
		bufWeights:     {Name: "normals", Init: kernels.F32ToWords(c.m.weights)},
		bufStepFactors: {Name: "step_factors", Words: nelr},
		bufFluxes:      {Name: "fluxes", Words: nVar * nelr},
	}
}

func (c *algorithm) Kernels() []string {
	return []string{kernelStepFactor, kernelFlux, kernelTimeStep}
}

func (c *algorithm) NextPhase(phase int, io rodinia.IO) ([]rodinia.Step, error) {
	if phase > 0 {
		return nil, nil
	}
	nelr := c.m.nelr
	groups := kernels.D1((nelr + 127) / 128)
	push := kernels.Words{uint32(nelr)}
	var steps []rodinia.Step
	for it := 0; it < c.iters; it++ {
		steps = append(steps,
			rodinia.Step{Kernel: kernelStepFactor, Groups: groups, Buffers: []int{bufVariables, bufAreas, bufStepFactors}, Push: push},
			rodinia.Step{Kernel: kernelFlux, Groups: groups, Buffers: []int{bufVariables, bufNeighbors, bufWeights, bufFluxes}, Push: push},
			rodinia.Step{Kernel: kernelTimeStep, Groups: groups, Buffers: []int{bufVariables, bufStepFactors, bufFluxes}, Push: push, SyncAfter: true},
		)
	}
	return steps, nil
}

// workloads: The labels are the element counts of
// the three Rodinia fvcorr domains.
func workloads(class hw.Class) []core.Workload {
	if class == hw.ClassMobile {
		// The paper could not fit cfd on either mobile platform (§V-B2); the
		// platform quirks exclude it, but a small configuration is still
		// defined for unit testing.
		return []core.Workload{
			{Label: "16K", Params: map[string]int{"nelr": 16 << 10, "iterations": iterations}},
		}
	}
	return []core.Workload{
		{Label: "97K", Params: map[string]int{"nelr": 97_000, "iterations": iterations}},
		{Label: "193K", Params: map[string]int{"nelr": 193_474, "iterations": iterations}},
		{Label: "232K", Params: map[string]int{"nelr": 232_536, "iterations": iterations}},
	}
}

func run(ctx *core.RunContext) (*core.Result, error) {
	nelr := ctx.Workload.Param("nelr", 97_000)
	iters := ctx.Workload.Param("iterations", iterations)
	m := generate(ctx.Seed, nelr)
	alg := &algorithm{m: m, iters: iters}

	out, err := rodinia.Run(ctx, alg, []int{bufVariables})
	if err != nil {
		return nil, err
	}
	vars := kernels.WordsToF32(out.Buffers[bufVariables])

	if ctx.Validate {
		want := reference(m, iters)
		for i := range want {
			diff := math.Abs(float64(vars[i] - want[i]))
			scale := math.Abs(float64(want[i])) + 1
			if diff/scale > 1e-3 {
				return nil, fmt.Errorf("cfd: variable %d = %v, want %v", i, vars[i], want[i])
			}
		}
	}
	res := ctx.Result(out.KernelTime)
	res.Dispatches = out.Dispatches
	res.Checksum = core.ChecksumF32(vars)
	return res, nil
}

const glslStepFactor = `#version 450
layout(local_size_x = 128) in;
layout(std430, set = 0, binding = 0) readonly buffer Vars  { float variables[]; };
layout(std430, set = 0, binding = 1) readonly buffer Areas { float areas[]; };
layout(std430, set = 0, binding = 2) buffer SF    { float step_factors[]; };
layout(push_constant) uniform Params { uint nelr; } p;
void main() {
    uint i = gl_GlobalInvocationID.x;
    if (i >= p.nelr) return;
    float speed = sqrt(abs(variables[i])) + 1.0;
    step_factors[i] = 0.5 / (sqrt(areas[i]) * speed);
}
`

const glslFlux = `#version 450
layout(local_size_x = 128) in;
layout(std430, set = 0, binding = 0) readonly buffer Vars   { float variables[]; };
layout(std430, set = 0, binding = 1) readonly buffer Neigh  { uint element_neighbors[]; };
layout(std430, set = 0, binding = 2) readonly buffer Norm   { float normals[]; };
layout(std430, set = 0, binding = 3) buffer Fluxes { float fluxes[]; };
layout(push_constant) uniform Params { uint nelr; } p;
void main() {
    uint i = gl_GlobalInvocationID.x;
    if (i >= p.nelr) return;
    for (uint v = 0u; v < 5u; v++) {
        float own = variables[v * p.nelr + i];
        float flux = 0.0;
        for (uint nb = 0u; nb < 4u; nb++) {
            uint id = element_neighbors[nb * p.nelr + i];
            flux += normals[nb * p.nelr + i] * (variables[v * p.nelr + id] - own);
        }
        fluxes[v * p.nelr + i] = flux;
    }
}
`

const glslTimeStep = `#version 450
layout(local_size_x = 128) in;
layout(std430, set = 0, binding = 0) buffer Vars   { float variables[]; };
layout(std430, set = 0, binding = 1) readonly buffer SF     { float step_factors[]; };
layout(std430, set = 0, binding = 2) readonly buffer Fluxes { float fluxes[]; };
layout(push_constant) uniform Params { uint nelr; } p;
void main() {
    uint i = gl_GlobalInvocationID.x;
    if (i >= p.nelr) return;
    for (uint v = 0u; v < 5u; v++) {
        variables[v * p.nelr + i] += step_factors[i] * fluxes[v * p.nelr + i];
    }
}
`
