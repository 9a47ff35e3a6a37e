package cuda_test

import (
	"errors"
	"math"
	"slices"
	"testing"

	"vcomputebench/internal/bench"
	"vcomputebench/internal/cuda"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/micro"
	"vcomputebench/internal/platforms"
)

func newEnv(t *testing.T) *bench.CUDAEnv {
	t.Helper()
	dev, err := platforms.GTX1050Ti().NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	env, err := bench.SetupCUDA(hw.NewHost(dev, hw.APICUDA), dev)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// f32Words returns n float words counting up from base.
func f32Words(n int, base float32) kernels.Words {
	w := make(kernels.Words, n)
	for i := range w {
		w[i] = math.Float32bits(base + float32(i))
	}
	return w
}

// readBack copies the buffer's words to the host.
func readBack(t *testing.T, env *bench.CUDAEnv, p *cuda.DevicePtr) kernels.Words {
	t.Helper()
	w := make(kernels.Words, p.Size()/4)
	if err := env.Context.MemcpyDtoH(w, p); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestMemcpyHtoDCopies pins the contract shared inputs rely on: MemcpyHtoD
// copies, so changing the host words afterwards leaves device memory as it
// was, and a kernel's stores into device memory never reach the host words
// the buffer was filled from.
func TestMemcpyHtoDCopies(t *testing.T) {
	env := newEnv(t)
	const n = 1000
	hosts := []kernels.Words{f32Words(n, 1), f32Words(n, 5000), f32Words(n, -3)}
	wants := make([]kernels.Words, len(hosts))
	ptrs := make([]*cuda.DevicePtr, len(hosts))
	for i, host := range hosts {
		wants[i] = slices.Clone(host)
		p, err := env.Context.Malloc(n * 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.Context.MemcpyHtoD(p, host); err != nil {
			t.Fatal(err)
		}
		ptrs[i] = p
	}

	for _, host := range hosts {
		for j := range host {
			host[j] = 0xffffffff
		}
	}
	for i, p := range ptrs {
		if !slices.Equal(readBack(t, env, p), wants[i]) {
			t.Fatalf("buffer %d changed with the host words it was copied from", i)
		}
	}
	for i, host := range hosts {
		copy(host, wants[i])
	}

	k, err := env.Module.GetKernel(micro.KernelVectorAdd)
	if err != nil {
		t.Fatal(err)
	}
	args := cuda.Args{Buffers: ptrs, Values: kernels.Words{n}}
	if err := env.Stream.Launch(k, kernels.D1(bench.DivUp(n, 256)), kernels.D1(256), args); err != nil {
		t.Fatal(err)
	}
	env.Stream.Synchronize()
	x, y, z := kernels.WordsToF32(wants[0]), kernels.WordsToF32(wants[1]), kernels.WordsToF32(readBack(t, env, ptrs[2]))
	for j := range z {
		if z[j] != x[j]+y[j] {
			t.Fatalf("z[%d] = %v, want %v", j, z[j], x[j]+y[j])
		}
	}
	for i, host := range hosts {
		if !slices.Equal(host, wants[i]) {
			t.Fatalf("the kernel's stores reached the host words of buffer %d", i)
		}
	}
}

// TestMemcpyRejectsLongerHostSlices: a host slice longer than the allocation
// is cudaErrorInvalidValue in both directions, before any transfer is
// charged to the host clock.
func TestMemcpyRejectsLongerHostSlices(t *testing.T) {
	env := newEnv(t)
	p, err := env.Context.Malloc(16 * 4)
	if err != nil {
		t.Fatal(err)
	}
	before := env.Context.Host().Now()
	if err := env.Context.MemcpyHtoD(p, make(kernels.Words, 17)); !errors.Is(err, cuda.ErrInvalidValue) {
		t.Fatalf("MemcpyHtoD of 17 words into 16: err = %v, want ErrInvalidValue", err)
	}
	if err := env.Context.MemcpyDtoH(make(kernels.Words, 17), p); !errors.Is(err, cuda.ErrInvalidValue) {
		t.Fatalf("MemcpyDtoH of 16 words into 17: err = %v, want ErrInvalidValue", err)
	}
	if now := env.Context.Host().Now(); now != before {
		t.Fatalf("rejected copies advanced the host clock by %v", now-before)
	}

	// Equal and shorter host slices stay valid.
	src := f32Words(16, 1)
	if err := env.Context.MemcpyHtoD(p, src); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{16, 3} {
		dst := make(kernels.Words, n)
		if err := env.Context.MemcpyDtoH(dst, p); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(dst, src[:n]) {
			t.Fatalf("MemcpyDtoH of %d words = %v, want %v", n, dst, src[:n])
		}
	}
}
