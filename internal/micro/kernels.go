// Package micro implements the two self-written microbenchmarks the paper
// uses alongside the Rodinia ports: the vector-addition example of §IV-A
// (Listing 1) and the strided-memory-bandwidth benchmark of §V-A1 / §V-B1
// (Figures 1 and 3). It also holds IterativeAdd, the workload of the
// single-command-buffer ablation.
package micro

import (
	"vcomputebench/internal/glsl"
	"vcomputebench/internal/kernels"
)

// Kernel entry point names.
const (
	KernelVectorAdd   = "vectoradd"
	KernelStridedRead = "strided_read"
)

func init() {
	kernels.MustRegister(&kernels.Program{
		Name:              KernelVectorAdd,
		LocalSize:         kernels.D1(256),
		Bindings:          3,
		ReadOnly:          1<<0 | 1<<1,
		PushConstantWords: 1,
		Fn:                vectorAddKernel,
	})
	glsl.RegisterSource(KernelVectorAdd, glslVectorAdd)

	kernels.MustRegister(&kernels.Program{
		Name:              KernelStridedRead,
		LocalSize:         kernels.D1(256),
		Bindings:          2,
		ReadOnly:          1 << 0,
		PushConstantWords: 2,
		Fn:                stridedReadKernel,
	})
	glsl.RegisterSource(KernelStridedRead, glslStridedRead)
}

// vectorAddKernel implements Z[i] = X[i] + Y[i] for i in [0, n).
func vectorAddKernel(wg *kernels.Workgroup) {
	n := int(wg.PushU32(0))
	x := wg.Buffer(0)
	y := wg.Buffer(1)
	z := wg.Buffer(2)
	wg.ForEach(func(inv *kernels.Invocation) {
		i := inv.GlobalX()
		if i >= n {
			return
		}
		z.StoreF32(inv, i, x.LoadF32(inv, i)+y.LoadF32(inv, i))
		inv.ALU(1)
	})
}

// stridedReadKernel reads in[(i*stride) mod nIn] and stores it to out[i],
// the strided memory access pattern of §V-A1.
func stridedReadKernel(wg *kernels.Workgroup) {
	stride := int(wg.PushU32(0))
	nIn := int(wg.PushU32(1))
	in := wg.Buffer(0)
	out := wg.Buffer(1)
	wg.ForEach(func(inv *kernels.Invocation) {
		i := inv.GlobalX()
		idx := (i * stride) % nIn
		v := in.LoadF32(inv, idx)
		out.StoreF32(inv, i, v)
		inv.ALU(2)
	})
}

// glslVectorAdd is the 10-line GLSL source the paper describes compiling
// offline with glslangValidator.
const glslVectorAdd = `#version 450
layout(local_size_x = 256) in;
layout(std430, set = 0, binding = 0) readonly buffer X { float x[]; };
layout(std430, set = 0, binding = 1) readonly buffer Y { float y[]; };
layout(std430, set = 0, binding = 2) buffer Z { float z[]; };
layout(push_constant) uniform Params { uint n; } params;
void main() {
    uint i = gl_GlobalInvocationID.x;
    if (i < params.n) { z[i] = x[i] + y[i]; }
}
`

// glslStridedRead is the strided-read bandwidth kernel.
const glslStridedRead = `#version 450
layout(local_size_x = 256) in;
layout(std430, set = 0, binding = 0) readonly buffer In  { float data_in[]; };
layout(std430, set = 0, binding = 1) buffer Out { float data_out[]; };
layout(push_constant) uniform Params { uint stride; uint n_in; } params;
void main() {
    uint i = gl_GlobalInvocationID.x;
    uint idx = (i * params.stride) % params.n_in;
    data_out[i] = data_in[idx];
}
`
