// Package backprop implements the Back Propagation benchmark of Table I
// (dwarf: Unstructured Grid, domain: Deep Learning). One training step of a
// three-layer perceptron: a forward pass that reduces the weighted inputs of
// every hidden unit on the device, an error/delta computation on the host, and
// a weight-adjustment pass back on the device.
//
// The two kernels have no inter-iteration dependency, so the Vulkan port
// records them onto separate command buffers (§V-A2) and the three APIs
// perform similarly.
package backprop

import (
	"fmt"
	"math"

	"vcomputebench/internal/bench"
	"vcomputebench/internal/core"
	"vcomputebench/internal/glsl"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/rodinia"
)

// Network shape: HiddenUnits hidden neurons, one output neuron, as in the
// Rodinia configuration (16 hidden units).
const (
	HiddenUnits = 16
	groupInputs = 256
	eta         = 0.3
	momentum    = 0.3
	target      = 0.1
)

// Kernel entry points.
const (
	kernelForward = "backprop_layerforward"
	kernelAdjust  = "backprop_adjust_weights"
)

func init() {
	kernels.MustRegister(&kernels.Program{
		Name:                kernelForward,
		LocalSize:           kernels.D1(groupInputs),
		Bindings:            3,
		PushConstantWords:   1,
		SharedWordsPerGroup: groupInputs,
		Fn:                  layerForwardKernel,
	})
	glsl.RegisterSource(kernelForward, glslForward)
	kernels.MustRegister(&kernels.Program{
		Name:              kernelAdjust,
		LocalSize:         kernels.D1(groupInputs),
		Bindings:          3,
		PushConstantWords: 1,
		Fn:                adjustWeightsKernel,
	})
	glsl.RegisterSource(kernelAdjust, glslAdjust)
	core.Register(core.Descriptor{
		Name:        "backprop",
		Family:      core.FamilyRodinia,
		Application: "One training step of a three-layer perceptron (Rodinia backprop)",
		Dwarf:       "Unstructured Grid",
		Domain:      "Deep Learning",
		Rank:        1,
		APIs:        hw.AllAPIs(),
		Workloads:   workloads,
		Exclusions: []core.PaperExclusion{
			{Platform: platforms.IDPowerVR, Reason: "OpenCL and Vulkan implementations failed to run on Nexus (paper §V-B2)"},
		},
		Run: run,
	})
}

// layerForwardKernel computes, per workgroup of 256 inputs, the partial sums
// of input*weight for each of the 16 hidden units, staging the inputs in
// shared memory as the Rodinia kernel does.
// Bindings: input, weights (n x 16), partial sums (groups x 16). Push: n.
func layerForwardKernel(wg *kernels.Workgroup) {
	n := int(wg.PushU32(0))
	input := wg.Buffer(0)
	weights := wg.Buffer(1)
	partial := wg.Buffer(2)
	shared := wg.SharedF32(groupInputs)
	base := wg.ID().X * groupInputs

	// Phase 1: stage this workgroup's inputs into shared memory.
	wg.ForEach(func(inv *kernels.Invocation) {
		i := inv.GlobalX()
		if i < n {
			shared[inv.LocalX()] = input.LoadF32(inv, i)
		} else {
			shared[inv.LocalX()] = 0
		}
		wg.LocalOp(1)
	})
	wg.Barrier()

	// Phase 2: the first HiddenUnits invocations reduce the weighted inputs of
	// one hidden unit each.
	wg.ForEach(func(inv *kernels.Invocation) {
		j := inv.LocalX()
		if j >= HiddenUnits {
			return
		}
		sum := float32(0)
		for e := 0; e < groupInputs; e++ {
			i := base + e
			if i >= n {
				break
			}
			w := weights.LoadF32(inv, i*HiddenUnits+j)
			sum += shared[e] * w
			wg.LocalOp(1)
			inv.ALU(2)
		}
		partial.StoreF32(inv, wg.ID().X*HiddenUnits+j, sum)
	})
	wg.Barrier()
}

// adjustWeightsKernel applies w[i][j] += eta * delta[j] * input[i].
// Bindings: input, weights, hidden deltas. Push: n.
func adjustWeightsKernel(wg *kernels.Workgroup) {
	n := int(wg.PushU32(0))
	input := wg.Buffer(0)
	weights := wg.Buffer(1)
	delta := wg.Buffer(2)
	wg.ForEach(func(inv *kernels.Invocation) {
		i := inv.GlobalX()
		if i >= n {
			return
		}
		in := input.LoadF32(inv, i)
		for j := 0; j < HiddenUnits; j++ {
			d := delta.LoadF32(inv, j)
			w := weights.LoadF32(inv, i*HiddenUnits+j)
			weights.StoreF32(inv, i*HiddenUnits+j, w+float32(eta)*d*in)
			inv.ALU(3)
		}
	})
}

func sigmoid(x float64) float64 { return 1.0 / (1.0 + math.Exp(-x)) }

// Buffer indices.
const (
	bufInput = iota
	bufWeights
	bufPartial
	bufDelta
)

type algorithm struct {
	n       int
	input   kernels.Words
	weights kernels.Words
	groups  int

	hidden [HiddenUnits]float64
	deltas [HiddenUnits]float32
}

func (b *algorithm) Buffers() []rodinia.BufferSpec {
	return []rodinia.BufferSpec{
		bufInput:   {Name: "input", Init: b.input},
		bufWeights: {Name: "weights", Init: b.weights},
		bufPartial: {Name: "partial_sums", Words: b.groups * HiddenUnits},
		bufDelta:   {Name: "hidden_delta", Words: HiddenUnits},
	}
}

func (b *algorithm) Kernels() []string { return []string{kernelForward, kernelAdjust} }

// SeparateSubmits implements rodinia.SeparateSubmits (§V-A2).
func (b *algorithm) SeparateSubmits() bool { return true }

func (b *algorithm) NextPhase(phase int, io rodinia.IO) ([]rodinia.Step, error) {
	switch phase {
	case 0:
		return []rodinia.Step{{
			Kernel:  kernelForward,
			Groups:  kernels.D1(b.groups),
			Buffers: []int{bufInput, bufWeights, bufPartial},
			Push:    kernels.Words{uint32(b.n)},
		}}, nil
	case 1:
		// Host side of the forward pass: reduce partial sums, apply the
		// sigmoid, compute the output error and the hidden deltas, then upload
		// them for the weight-adjustment kernel.
		partials, err := io.Read(bufPartial)
		if err != nil {
			return nil, err
		}
		pf := kernels.WordsToF32(partials)
		for j := 0; j < HiddenUnits; j++ {
			sum := 0.0
			for g := 0; g < b.groups; g++ {
				sum += float64(pf[g*HiddenUnits+j])
			}
			b.hidden[j] = sigmoid(sum)
		}
		outSum := 0.0
		for j := 0; j < HiddenUnits; j++ {
			outSum += b.hidden[j] * 0.1
		}
		out := sigmoid(outSum)
		outDelta := out * (1 - out) * (target - out)
		for j := 0; j < HiddenUnits; j++ {
			h := b.hidden[j]
			b.deltas[j] = float32(h * (1 - h) * outDelta * 0.1)
		}
		if err := io.Write(bufDelta, kernels.F32ToWords(b.deltas[:])); err != nil {
			return nil, err
		}
		return []rodinia.Step{{
			Kernel:  kernelAdjust,
			Groups:  kernels.D1(b.groups),
			Buffers: []int{bufInput, bufWeights, bufDelta},
			Push:    kernels.Words{uint32(b.n)},
		}}, nil
	default:
		return nil, nil
	}
}

// reference computes the expected updated weights and hidden activations on
// the CPU.
func reference(n int, input, weights []float32) ([]float32, [HiddenUnits]float64) {
	var hidden [HiddenUnits]float64
	for j := 0; j < HiddenUnits; j++ {
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(input[i]) * float64(weights[i*HiddenUnits+j])
		}
		hidden[j] = sigmoid(sum)
	}
	outSum := 0.0
	for j := 0; j < HiddenUnits; j++ {
		outSum += hidden[j] * 0.1
	}
	out := sigmoid(outSum)
	outDelta := out * (1 - out) * (target - out)
	var deltas [HiddenUnits]float64
	for j := 0; j < HiddenUnits; j++ {
		h := hidden[j]
		deltas[j] = h * (1 - h) * outDelta * 0.1
	}
	updated := append([]float32(nil), weights...)
	for i := 0; i < n; i++ {
		for j := 0; j < HiddenUnits; j++ {
			updated[i*HiddenUnits+j] += float32(eta * deltas[j] * float64(input[i]))
		}
	}
	return updated, hidden
}

// workloads: The label is the number of input
// nodes.
func workloads(class hw.Class) []core.Workload {
	if class == hw.ClassMobile {
		return []core.Workload{
			{Label: "208", Params: map[string]int{"n": 208}},
			{Label: "416", Params: map[string]int{"n": 416}},
		}
	}
	return []core.Workload{
		{Label: "4K", Params: map[string]int{"n": 4 << 10}},
		{Label: "64K", Params: map[string]int{"n": 64 << 10}},
		{Label: "256K", Params: map[string]int{"n": 256 << 10}},
	}
}

func run(ctx *core.RunContext) (*core.Result, error) {
	n := ctx.Workload.Param("n", 4<<10)
	input := ctx.RandomF32(ctx.Seed, n, 0, 1)
	weights := ctx.RandomF32(ctx.Seed+1, n*HiddenUnits, -0.5, 0.5)
	alg := &algorithm{
		n:       n,
		input:   input,
		weights: weights,
		groups:  (n + groupInputs - 1) / groupInputs,
	}

	out, err := rodinia.Run(ctx, alg, []int{bufWeights})
	if err != nil {
		return nil, err
	}
	updated := kernels.WordsToF32(out.Buffers[bufWeights])[: n*HiddenUnits : n*HiddenUnits]

	if ctx.Validate {
		want, hidden := reference(n, kernels.WordsToF32(input), kernels.WordsToF32(weights))
		for j := 0; j < HiddenUnits; j++ {
			if math.Abs(alg.hidden[j]-hidden[j]) > 1e-3 {
				return nil, fmt.Errorf("backprop: hidden[%d] = %v, want %v", j, alg.hidden[j], hidden[j])
			}
		}
		for i := range want {
			if bench.AbsDiff(updated[i], want[i]) > 1e-3 {
				return nil, fmt.Errorf("backprop: weight %d = %v, want %v", i, updated[i], want[i])
			}
		}
	}
	return &core.Result{
		KernelTime: out.KernelTime,
		TotalTime:  ctx.Now(),
		Dispatches: out.Dispatches,
		Checksum:   core.ChecksumF32(updated),
	}, nil
}

const glslForward = `#version 450
layout(local_size_x = 256) in;
layout(std430, set = 0, binding = 0) buffer Input   { float input_units[]; };
layout(std430, set = 0, binding = 1) buffer Weights { float w[]; };
layout(std430, set = 0, binding = 2) buffer Partial { float partial_sum[]; };
layout(push_constant) uniform Params { uint n; } p;
shared float node[256];
void main() {
    uint gid = gl_GlobalInvocationID.x, lid = gl_LocalInvocationID.x;
    node[lid] = (gid < p.n) ? input_units[gid] : 0.0;
    barrier();
    if (lid < 16u) {
        float sum = 0.0;
        for (uint e = 0u; e < 256u; e++) {
            uint i = gl_WorkGroupID.x * 256u + e;
            if (i >= p.n) break;
            sum += node[e] * w[i * 16u + lid];
        }
        partial_sum[gl_WorkGroupID.x * 16u + lid] = sum;
    }
}
`

const glslAdjust = `#version 450
layout(local_size_x = 256) in;
layout(std430, set = 0, binding = 0) buffer Input   { float input_units[]; };
layout(std430, set = 0, binding = 1) buffer Weights { float w[]; };
layout(std430, set = 0, binding = 2) buffer Delta   { float delta[]; };
layout(push_constant) uniform Params { uint n; } p;
void main() {
    uint i = gl_GlobalInvocationID.x;
    if (i >= p.n) return;
    for (uint j = 0u; j < 16u; j++) {
        w[i * 16u + j] += 0.3 * delta[j] * input_units[i];
    }
}
`
