package kernels_test

// Microbenchmarks for the dispatch engine's measurement hot path
// (kernels.Execute) over representative kernels: the vectoradd
// microbenchmark (both a sampled large dispatch and an exact small one),
// the bfs frontier-expansion kernel (exact, irregular accesses), the
// lud internal kernel (2-D grid, shared-memory tile model), the two heaviest
// kernels of the mobile Rodinia figure (gaussian's Fan2 and hotspot, 2-D
// 16x16 workgroups) and the extension-family kernels (gemm's ALU-dense tiled multiply, reduction's
// barrier-heavy shared tree, srad's stencil loads).
//
// `make bench` runs these with -benchmem and folds the numbers into
// BENCH_dispatch.json (ns/op, B/op, allocs/op) next to the pre-optimisation
// baseline, so dispatch-engine perf regressions are visible in review.

import (
	"math"
	"testing"

	_ "vcomputebench/internal/extensions/gemm"
	_ "vcomputebench/internal/extensions/reduction"
	_ "vcomputebench/internal/extensions/srad"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/micro"
	_ "vcomputebench/internal/rodinia/bfs"
	_ "vcomputebench/internal/rodinia/gaussian"
	_ "vcomputebench/internal/rodinia/hotspot"
	_ "vcomputebench/internal/rodinia/lud"
)

// benchParallelism pins the dispatch worker count so allocs/op and ns/op are
// comparable across machines and across the suite-scheduler core budget.
const benchParallelism = 4

func mustLookup(b *testing.B, name string) *kernels.Program {
	b.Helper()
	p, err := kernels.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func runExecute(b *testing.B, p *kernels.Program, cfg kernels.DispatchConfig, reset func()) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if reset != nil {
			reset()
		}
		if _, _, _, err := kernels.Execute(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func vectorAddConfig(groups int) (kernels.DispatchConfig, func()) {
	n := groups * 256
	x := make(kernels.Words, n)
	y := make(kernels.Words, n)
	z := make(kernels.Words, n)
	for i := range x {
		x[i] = uint32(i)
		y[i] = uint32(n - i)
	}
	cfg := kernels.DispatchConfig{
		Groups:      kernels.D1(groups),
		Buffers:     []kernels.Words{x, y, z},
		Push:        kernels.Words{uint32(n)},
		Parallelism: benchParallelism,
	}
	return cfg, nil
}

// BenchmarkExecuteVectorAddSampled dispatches 2M invocations, four times the
// exact-execution cap, so workgroup sampling and the coalescing recorder are
// both on the measured path.
//
// Reading the numbers: Sampled executes 512Ki invocations (the cap), the same
// count as ExactLarge but spread as every 4th workgroup across a 4x larger
// buffer footprint — compare those two to see the true sampling overhead
// (strided access locality plus recorder bookkeeping, single-digit percent).
// The old Sampled-vs-Exact ratio of ~4.3x was almost entirely the 4x
// difference in *executed invocations* (512Ki vs 128Ki), not sampling cost;
// the pair was never size-matched.
func BenchmarkExecuteVectorAddSampled(b *testing.B) {
	p := mustLookup(b, micro.KernelVectorAdd)
	cfg, reset := vectorAddConfig(8192)
	runExecute(b, p, cfg, reset)
}

// BenchmarkExecuteVectorAddExact stays under the sampling threshold: every
// workgroup runs functionally.
func BenchmarkExecuteVectorAddExact(b *testing.B) {
	p := mustLookup(b, micro.KernelVectorAdd)
	cfg, reset := vectorAddConfig(512)
	runExecute(b, p, cfg, reset)
}

// BenchmarkExecuteVectorAddExactLarge executes the same number of invocations
// as the sampled benchmark (2048 workgroups = 512Ki invocations, exactly at
// the sampling cap) but contiguously and without the recorder, isolating the
// sampled path's true overhead in the BENCH_dispatch.json comparison.
func BenchmarkExecuteVectorAddExactLarge(b *testing.B) {
	p := mustLookup(b, micro.KernelVectorAdd)
	cfg, reset := vectorAddConfig(2048)
	runExecute(b, p, cfg, reset)
}

// BenchmarkExecuteBFSKernel1 runs the frontier-expansion kernel over a 64K
// node graph with every node in the frontier. The kernel is Exact (never
// sampled) and mutates the masks, so they are restored every iteration.
func BenchmarkExecuteBFSKernel1(b *testing.B) {
	p := mustLookup(b, "bfs_kernel1")
	const n = 64 << 10
	const degree = 6
	nodes := make(kernels.Words, 2*n)
	edges := make(kernels.Words, n*degree)
	maskInit := make(kernels.Words, n)
	for i := 0; i < n; i++ {
		nodes[2*i] = uint32(i * degree)
		nodes[2*i+1] = degree
		maskInit[i] = 1
		for d := 0; d < degree; d++ {
			edges[i*degree+d] = uint32((i*7 + d*31) % n)
		}
	}
	mask := make(kernels.Words, n)
	updating := make(kernels.Words, n)
	visited := make(kernels.Words, n)
	cost := make(kernels.Words, n)
	cfg := kernels.DispatchConfig{
		Groups:      kernels.D1((n + 255) / 256),
		Buffers:     []kernels.Words{nodes, edges, mask, updating, visited, cost},
		Push:        kernels.Words{uint32(n)},
		Parallelism: benchParallelism,
	}
	reset := func() {
		copy(mask, maskInit)
		for i := range updating {
			updating[i] = 0
			visited[i] = 0
			cost[i] = 0
		}
	}
	runExecute(b, p, cfg, reset)
}

// BenchmarkExecuteGEMMTiled multiplies two 128x128 matrices with the tiled
// extension kernel: an 8x8 grid of 16x16 workgroups, each staging tiles of A
// and B through shared memory. The per-invocation inner loop makes it the most
// ALU-dense kernel on the measured path.
func BenchmarkExecuteGEMMTiled(b *testing.B) {
	p := mustLookup(b, "gemm_tiled")
	const n = 128
	a := make(kernels.Words, n*n)
	bm := make(kernels.Words, n*n)
	c := make(kernels.Words, n*n)
	for i := range a {
		a[i] = math.Float32bits(float32(i%13) - 6)
		bm[i] = math.Float32bits(float32(i%7) - 3)
	}
	cfg := kernels.DispatchConfig{
		Groups:      kernels.D2(n/16, n/16),
		Buffers:     []kernels.Words{a, bm, c},
		Push:        kernels.Words{uint32(n)},
		Parallelism: benchParallelism,
	}
	runExecute(b, p, cfg, nil)
}

// BenchmarkExecuteReductionSum runs one pass of the extension sum reduction
// over 256K elements (512 workgroups): a barrier-heavy shared-memory tree with
// guarded global loads.
func BenchmarkExecuteReductionSum(b *testing.B) {
	p := mustLookup(b, "reduction_sum")
	const n = 256 << 10
	in := make(kernels.Words, n)
	out := make(kernels.Words, n/512)
	for i := range in {
		in[i] = math.Float32bits(float32(i%97) / 97)
	}
	cfg := kernels.DispatchConfig{
		Groups:      kernels.D1(n / 512),
		Buffers:     []kernels.Words{in, out},
		Push:        kernels.Words{uint32(n)},
		Parallelism: benchParallelism,
	}
	runExecute(b, p, cfg, nil)
}

// BenchmarkExecuteSRADCoeff runs the srad extension's diffusion-coefficient
// kernel over a 128x128 image (8x8 grid of 16x16 workgroups): five clamped
// global loads and five stores per invocation, a stencil-heavy access pattern.
func BenchmarkExecuteSRADCoeff(b *testing.B) {
	p := mustLookup(b, "srad1_coeff")
	const n = 128
	img := make(kernels.Words, n*n)
	for i := range img {
		img[i] = math.Float32bits(float32(i%31)/31 + 0.05)
	}
	mk := func() kernels.Words { return make(kernels.Words, n*n) }
	cfg := kernels.DispatchConfig{
		Groups:      kernels.D2(n/16, n/16),
		Buffers:     []kernels.Words{img, mk(), mk(), mk(), mk(), mk()},
		Push:        kernels.Words{uint32(n), math.Float32bits(0.05)},
		Parallelism: benchParallelism,
	}
	runExecute(b, p, cfg, nil)
}

// BenchmarkExecuteLUDInternal runs one trailing-update step of the blocked LU
// factorisation on a 128x128 matrix (7x7 workgroups of 16x16 invocations).
func BenchmarkExecuteLUDInternal(b *testing.B) {
	p := mustLookup(b, "lud_internal")
	const n = 128
	matInit := make(kernels.Words, n*n)
	for i := range matInit {
		matInit[i] = kernels.F32ToWords([]float32{float32(i%17) + 1})[0]
	}
	mat := make(kernels.Words, n*n)
	cfg := kernels.DispatchConfig{
		Groups:      kernels.Dim3{X: 7, Y: 7, Z: 1},
		Buffers:     []kernels.Words{mat},
		Push:        kernels.Words{uint32(n), 0},
		Parallelism: benchParallelism,
	}
	reset := func() { copy(mat, matInit) }
	runExecute(b, p, cfg, reset)
}

// BenchmarkExecuteGaussianFan2 runs the first trailing-submatrix update of
// Gaussian elimination at n=256, the largest mobile workload: a 16x16 grid of
// 16x16 workgroups, three loads and one store per invocation plus the
// right-hand-side column. Fan2 is the heaviest kernel of the mobile Rodinia
// figure. The matrix drifts between iterations, but no index depends on it.
func BenchmarkExecuteGaussianFan2(b *testing.B) {
	p := mustLookup(b, "gaussian_fan2")
	const n = 256
	m := make(kernels.Words, n*n)
	a := make(kernels.Words, n*n)
	rhs := make(kernels.Words, n)
	for i := range a {
		a[i] = math.Float32bits(float32(i%29) + 1)
		m[i] = math.Float32bits(float32(i%5) / 64)
	}
	for i := range rhs {
		rhs[i] = math.Float32bits(1)
	}
	cfg := kernels.DispatchConfig{
		Groups:      kernels.D2((n-1+15)/16, (n+15)/16),
		Buffers:     []kernels.Words{m, a, rhs},
		Push:        kernels.Words{n, 0},
		Parallelism: benchParallelism,
	}
	runExecute(b, p, cfg, nil)
}

// BenchmarkExecuteHotspot advances a 256x256 temperature grid by one step (a
// 16x16 grid of 16x16 workgroups): a five-point stencil with a power load and
// one store per invocation, the largest mobile hotspot workload.
func BenchmarkExecuteHotspot(b *testing.B) {
	p := mustLookup(b, "hotspot_kernel")
	const n = 256
	power := make(kernels.Words, n*n)
	temp := make(kernels.Words, n*n)
	for i := range temp {
		temp[i] = math.Float32bits(323 + float32(i%19))
		power[i] = math.Float32bits(float32(i%11) / 11)
	}
	cfg := kernels.DispatchConfig{
		Groups:  kernels.D2(n/16, n/16),
		Buffers: []kernels.Words{power, temp, make(kernels.Words, n*n)},
		Push: kernels.Words{n, math.Float32bits(0.5), math.Float32bits(2),
			math.Float32bits(0.25), math.Float32bits(0.125)},
		Parallelism: benchParallelism,
	}
	runExecute(b, p, cfg, nil)
}
