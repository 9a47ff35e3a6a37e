// Package srad implements SRAD (Speckle Reducing Anisotropic Diffusion), a
// port of the Rodinia srad_v2 benchmark registered as an extension workload
// beyond the paper's Table I suite. Each diffusion iteration runs two
// dependent kernels — srad1 computes the directional derivatives and the
// diffusion coefficient, srad2 updates the image — with a host step in between
// iterations that recomputes the ROI statistic q0sqr from the device image,
// the same host/device interleaving pattern as the paper's backprop port.
package srad

import (
	"fmt"
	"math"

	"vcomputebench/internal/core"
	"vcomputebench/internal/glsl"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/rodinia"
)

const (
	kernelSrad1 = "srad1_coeff"
	kernelSrad2 = "srad2_update"
	tile        = 16
	lambda      = float32(0.5)
)

// Buffer indices.
const (
	bufJ = iota
	bufDN
	bufDS
	bufDW
	bufDE
	bufC
)

func init() {
	kernels.MustRegister(&kernels.Program{
		Name:              kernelSrad1,
		LocalSize:         kernels.D2(tile, tile),
		Bindings:          6,
		PushConstantWords: 2,
		Fn:                srad1Kernel,
	})
	glsl.RegisterSource(kernelSrad1, glslSrad1)
	kernels.MustRegister(&kernels.Program{
		Name:              kernelSrad2,
		LocalSize:         kernels.D2(tile, tile),
		Bindings:          6,
		PushConstantWords: 2,
		Fn:                srad2Kernel,
	})
	glsl.RegisterSource(kernelSrad2, glslSrad2)
	core.Register(core.Descriptor{
		Name:        "srad",
		Family:      core.FamilyExtension,
		Application: "Speckle reducing anisotropic diffusion over a 2-D image (Rodinia srad port)",
		Dwarf:       "Structured Grid",
		Domain:      "Image Processing",
		Rank:        2,
		APIs:        hw.AllAPIs(),
		Workloads:   workloads,
		Traffic:     traffic,
		Run:         run,
	})
}

// clampIndex clamps i to [0, n-1] (Rodinia's boundary handling).
func clampIndex(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// srad1Kernel computes, per pixel, the four directional derivatives and the
// diffusion coefficient c clamped to [0,1]: 5 loads and 5 stores per
// invocation. The image is square with order a multiple of the 16x16
// workgroup, so every invocation is active and the traffic model is exact.
// Bindings: J, dN, dS, dW, dE, c. Push: n, q0sqr.
func srad1Kernel(wg *kernels.Workgroup) {
	n := int(wg.PushU32(0))
	q0 := wg.PushF32(1)
	j := wg.Buffer(bufJ)
	dN := wg.Buffer(bufDN)
	dS := wg.Buffer(bufDS)
	dW := wg.Buffer(bufDW)
	dE := wg.Buffer(bufDE)
	cb := wg.Buffer(bufC)
	wg.ForEach(func(inv *kernels.Invocation) {
		x, y := inv.GlobalX(), inv.GlobalY()
		jc := j.LoadF32(inv, y*n+x)
		jn := j.LoadF32(inv, clampIndex(y-1, n)*n+x)
		js := j.LoadF32(inv, clampIndex(y+1, n)*n+x)
		jw := j.LoadF32(inv, y*n+clampIndex(x-1, n))
		je := j.LoadF32(inv, y*n+clampIndex(x+1, n))
		dn, ds, dw, de := jn-jc, js-jc, jw-jc, je-jc
		g2 := (dn*dn + ds*ds + dw*dw + de*de) / (jc * jc)
		l := (dn + ds + dw + de) / jc
		num := 0.5*g2 - (1.0/16.0)*(l*l)
		den := 1 + 0.25*l
		qsqr := num / (den * den)
		den2 := (qsqr - q0) / (q0 * (1 + q0))
		c := 1.0 / (1.0 + den2)
		if c < 0 {
			c = 0
		} else if c > 1 {
			c = 1
		}
		dN.StoreF32(inv, y*n+x, dn)
		dS.StoreF32(inv, y*n+x, ds)
		dW.StoreF32(inv, y*n+x, dw)
		dE.StoreF32(inv, y*n+x, de)
		cb.StoreF32(inv, y*n+x, c)
		inv.ALU(24)
	})
}

// srad2Kernel applies the diffusion update J += lambda/4 * div: 8 loads and
// one store per invocation (cN and cW alias the centre coefficient).
// Bindings: J, dN, dS, dW, dE, c. Push: n, lambda.
func srad2Kernel(wg *kernels.Workgroup) {
	n := int(wg.PushU32(0))
	lam := wg.PushF32(1)
	j := wg.Buffer(bufJ)
	dN := wg.Buffer(bufDN)
	dS := wg.Buffer(bufDS)
	dW := wg.Buffer(bufDW)
	dE := wg.Buffer(bufDE)
	cb := wg.Buffer(bufC)
	wg.ForEach(func(inv *kernels.Invocation) {
		x, y := inv.GlobalX(), inv.GlobalY()
		cc := cb.LoadF32(inv, y*n+x)
		cs := cb.LoadF32(inv, clampIndex(y+1, n)*n+x)
		ce := cb.LoadF32(inv, y*n+clampIndex(x+1, n))
		dn := dN.LoadF32(inv, y*n+x)
		ds := dS.LoadF32(inv, y*n+x)
		dw := dW.LoadF32(inv, y*n+x)
		de := dE.LoadF32(inv, y*n+x)
		jc := j.LoadF32(inv, y*n+x)
		div := cc*dn + cs*ds + cc*dw + ce*de
		j.StoreF32(inv, y*n+x, jc+0.25*lam*div)
		inv.ALU(10)
	})
}

// traffic models the two kernels exactly: per iteration srad1 performs 5 loads
// and 5 stores per pixel and srad2 performs 8 loads and 1 store.
func traffic(w core.Workload) core.Traffic {
	n := float64(w.Param("n", 128))
	iters := float64(w.Param("iterations", 2))
	pixels := n * n
	return core.Traffic{
		GlobalLoadBytes:  4 * pixels * iters * (5 + 8),
		GlobalStoreBytes: 4 * pixels * iters * (5 + 1),
		Dispatches:       2 * w.Param("iterations", 2),
	}
}

// workloads: the label is the image order; all orders are multiples of the
// 16x16 workgroup.
func workloads(class hw.Class) []core.Workload {
	if class == hw.ClassMobile {
		return []core.Workload{
			{Label: "64", Params: map[string]int{"n": 64, "iterations": 2}},
			{Label: "128", Params: map[string]int{"n": 128, "iterations": 2}},
		}
	}
	return []core.Workload{
		{Label: "128", Params: map[string]int{"n": 128, "iterations": 4}},
		{Label: "256", Params: map[string]int{"n": 256, "iterations": 4}},
	}
}

type algorithm struct {
	n     int
	iters int
	img   kernels.Words
}

func (s *algorithm) Buffers() []rodinia.BufferSpec {
	pixels := s.n * s.n
	return []rodinia.BufferSpec{
		bufJ:  {Name: "J", Init: s.img},
		bufDN: {Name: "dN", Words: pixels},
		bufDS: {Name: "dS", Words: pixels},
		bufDW: {Name: "dW", Words: pixels},
		bufDE: {Name: "dE", Words: pixels},
		bufC:  {Name: "c", Words: pixels},
	}
}

func (s *algorithm) Kernels() []string { return []string{kernelSrad1, kernelSrad2} }

// q0sqrOf computes the ROI statistic variance/mean^2 over the whole image.
func q0sqrOf(img []float32) float64 {
	var sum, sum2 float64
	for _, v := range img {
		sum += float64(v)
		sum2 += float64(v) * float64(v)
	}
	n := float64(len(img))
	mean := sum / n
	variance := sum2/n - mean*mean
	return variance / (mean * mean)
}

func (s *algorithm) NextPhase(phase int, io rodinia.IO) ([]rodinia.Step, error) {
	if phase >= s.iters {
		return nil, nil
	}
	// Host step: read the current image back and recompute q0sqr, as the
	// Rodinia host code does between iterations.
	words, err := io.Read(bufJ)
	if err != nil {
		return nil, err
	}
	q0 := float32(q0sqrOf(kernels.WordsToF32(words)))
	groups := kernels.D2(s.n/tile, s.n/tile)
	buffers := []int{bufJ, bufDN, bufDS, bufDW, bufDE, bufC}
	return []rodinia.Step{
		{
			Kernel:    kernelSrad1,
			Groups:    groups,
			Buffers:   buffers,
			Push:      kernels.Words{uint32(s.n), math.Float32bits(q0)},
			SyncAfter: true, // srad2 consumes the derivatives and coefficients
		},
		{
			Kernel:    kernelSrad2,
			Groups:    groups,
			Buffers:   buffers,
			Push:      kernels.Words{uint32(s.n), math.Float32bits(lambda)},
			SyncAfter: true, // the next iteration's host step reads J
		},
	}, nil
}

// reference runs the same diffusion on the CPU in float64.
func reference(n, iters int, img []float32) []float64 {
	j := make([]float64, len(img))
	for i, v := range img {
		j[i] = float64(v)
	}
	dn := make([]float64, len(img))
	ds := make([]float64, len(img))
	dw := make([]float64, len(img))
	de := make([]float64, len(img))
	c := make([]float64, len(img))
	for it := 0; it < iters; it++ {
		var sum, sum2 float64
		for _, v := range j {
			sum += v
			sum2 += v * v
		}
		nn := float64(len(j))
		mean := sum / nn
		q0 := (sum2/nn - mean*mean) / (mean * mean)
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				i := y*n + x
				jc := j[i]
				dn[i] = j[clampIndex(y-1, n)*n+x] - jc
				ds[i] = j[clampIndex(y+1, n)*n+x] - jc
				dw[i] = j[y*n+clampIndex(x-1, n)] - jc
				de[i] = j[y*n+clampIndex(x+1, n)] - jc
				g2 := (dn[i]*dn[i] + ds[i]*ds[i] + dw[i]*dw[i] + de[i]*de[i]) / (jc * jc)
				l := (dn[i] + ds[i] + dw[i] + de[i]) / jc
				num := 0.5*g2 - (1.0/16.0)*(l*l)
				den := 1 + 0.25*l
				qsqr := num / (den * den)
				den2 := (qsqr - q0) / (q0 * (1 + q0))
				cv := 1.0 / (1.0 + den2)
				if cv < 0 {
					cv = 0
				} else if cv > 1 {
					cv = 1
				}
				c[i] = cv
			}
		}
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				i := y*n + x
				cs := c[clampIndex(y+1, n)*n+x]
				ce := c[y*n+clampIndex(x+1, n)]
				div := c[i]*dn[i] + cs*ds[i] + c[i]*dw[i] + ce*de[i]
				j[i] += 0.25 * float64(lambda) * div
			}
		}
	}
	return j
}

func run(ctx *core.RunContext) (*core.Result, error) {
	n := ctx.Workload.Param("n", 128)
	iters := ctx.Workload.Param("iterations", 2)
	if n%tile != 0 {
		return nil, fmt.Errorf("srad: order %d is not a multiple of the tile size %d", n, tile)
	}
	// Positive speckled image, bounded away from zero so jc*jc never
	// underflows.
	img := ctx.RandomF32(ctx.Seed, n*n, 0.05, 1.0)
	alg := &algorithm{n: n, iters: iters, img: img}

	out, err := rodinia.Run(ctx, alg, []int{bufJ})
	if err != nil {
		return nil, err
	}
	result := kernels.WordsToF32(out.Buffers[bufJ])[:n*n]

	if ctx.Validate {
		want := reference(n, iters, kernels.WordsToF32(img))
		for i := range want {
			scale := math.Max(math.Abs(want[i]), 1)
			if math.Abs(float64(result[i])-want[i])/scale > 1e-3 {
				return nil, fmt.Errorf("srad: pixel %d = %v, want %v", i, result[i], want[i])
			}
		}
	}
	t := traffic(ctx.Workload)
	res := &core.Result{
		KernelTime: out.KernelTime,
		TotalTime:  ctx.Now(),
		Dispatches: out.Dispatches,
		Checksum:   core.ChecksumF32(result),
	}
	res.SetExtraThroughput(core.ExtraBandwidthGBps, t.GlobalBytes(), out.KernelTime)
	return res, nil
}

const glslSrad1 = `#version 450
layout(local_size_x = 16, local_size_y = 16) in;
layout(std430, set = 0, binding = 0) buffer BufJ  { float J[]; };
layout(std430, set = 0, binding = 1) buffer BufDN { float dN[]; };
layout(std430, set = 0, binding = 2) buffer BufDS { float dS[]; };
layout(std430, set = 0, binding = 3) buffer BufDW { float dW[]; };
layout(std430, set = 0, binding = 4) buffer BufDE { float dE[]; };
layout(std430, set = 0, binding = 5) buffer BufC  { float c[]; };
layout(push_constant) uniform Params { uint n; float q0sqr; } p;
void main() {
    uint x = gl_GlobalInvocationID.x, y = gl_GlobalInvocationID.y;
    uint i = y * p.n + x;
    uint yn = y == 0u ? 0u : y - 1u, ys = min(y + 1u, p.n - 1u);
    uint xw = x == 0u ? 0u : x - 1u, xe = min(x + 1u, p.n - 1u);
    float jc = J[i];
    float dn = J[yn * p.n + x] - jc, ds = J[ys * p.n + x] - jc;
    float dw = J[y * p.n + xw] - jc, de = J[y * p.n + xe] - jc;
    float g2 = (dn*dn + ds*ds + dw*dw + de*de) / (jc*jc);
    float l = (dn + ds + dw + de) / jc;
    float num = 0.5*g2 - (1.0/16.0)*(l*l);
    float den = 1.0 + 0.25*l;
    float qsqr = num / (den*den);
    float den2 = (qsqr - p.q0sqr) / (p.q0sqr * (1.0 + p.q0sqr));
    float cv = clamp(1.0 / (1.0 + den2), 0.0, 1.0);
    dN[i] = dn; dS[i] = ds; dW[i] = dw; dE[i] = de; c[i] = cv;
}
`

const glslSrad2 = `#version 450
layout(local_size_x = 16, local_size_y = 16) in;
layout(std430, set = 0, binding = 0) buffer BufJ  { float J[]; };
layout(std430, set = 0, binding = 1) buffer BufDN { float dN[]; };
layout(std430, set = 0, binding = 2) buffer BufDS { float dS[]; };
layout(std430, set = 0, binding = 3) buffer BufDW { float dW[]; };
layout(std430, set = 0, binding = 4) buffer BufDE { float dE[]; };
layout(std430, set = 0, binding = 5) buffer BufC  { float c[]; };
layout(push_constant) uniform Params { uint n; float lambda; } p;
void main() {
    uint x = gl_GlobalInvocationID.x, y = gl_GlobalInvocationID.y;
    uint i = y * p.n + x;
    uint ys = min(y + 1u, p.n - 1u), xe = min(x + 1u, p.n - 1u);
    float cc = c[i], cs = c[ys * p.n + x], ce = c[y * p.n + xe];
    float div = cc * dN[i] + cs * dS[i] + cc * dW[i] + ce * dE[i];
    J[i] += 0.25 * p.lambda * div;
}
`
