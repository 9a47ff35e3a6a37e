package opencl_test

import (
	"errors"
	"math"
	"slices"
	"testing"

	"vcomputebench/internal/bench"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/micro"
	"vcomputebench/internal/opencl"
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/sim"
)

func newEnv(t *testing.T) *bench.CLEnv {
	t.Helper()
	dev, err := platforms.GTX1050Ti().NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	env, err := bench.SetupOpenCL(sim.NewHost(), dev, micro.KernelVectorAdd)
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

// TestHostCopiesAreCopies pins the contract shared inputs rely on:
// CreateBuffer with MemCopyHostPtr and EnqueueWriteBuffer copy, so changing
// the host words afterwards leaves the buffer as it was, and a kernel's
// stores into a buffer never reach the host words it was filled from.
func TestHostCopiesAreCopies(t *testing.T) {
	env := newEnv(t)
	const n = 1000
	hosts := []kernels.Words{f32Words(n, 1), f32Words(n, 5000), f32Words(n, -3)}
	wants := make([]kernels.Words, len(hosts))
	bufs := make([]*opencl.Mem, len(hosts))
	for i, host := range hosts {
		wants[i] = slices.Clone(host)
		var err error
		if i < 2 {
			bufs[i], err = env.Context.CreateBuffer(opencl.MemReadOnly|opencl.MemCopyHostPtr, n*4, host)
		} else {
			bufs[i], err = env.Context.CreateBuffer(opencl.MemReadWrite, n*4, nil)
			if err == nil {
				_, err = env.Queue.EnqueueWriteBuffer(bufs[i], true, host)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, host := range hosts {
		for j := range host {
			host[j] = 0xffffffff
		}
	}
	for i, b := range bufs {
		if !slices.Equal(b.Words(), wants[i]) {
			t.Fatalf("buffer %d changed with the host words it was copied from", i)
		}
	}
	for i, host := range hosts {
		copy(host, wants[i])
	}

	k, err := env.Program.CreateKernel(micro.KernelVectorAdd)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bufs {
		if err := k.SetArgBuffer(i, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.SetArgU32(3, n); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Queue.EnqueueNDRangeKernel(k, kernels.D1(bench.DivUp(n, 256)*256), kernels.D1(256)); err != nil {
		t.Fatal(err)
	}
	env.Queue.Finish()
	x, y, z := kernels.WordsToF32(wants[0]), kernels.WordsToF32(wants[1]), kernels.WordsToF32(bufs[2].Words())
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

// TestHostSlicesLongerThanTheBufferAreInvalid: CreateBuffer,
// EnqueueWriteBuffer and EnqueueReadBuffer reject a host slice longer than
// the buffer with CL_INVALID_VALUE, before charging anything to the host
// clock; equal and shorter slices stay valid.
func TestHostSlicesLongerThanTheBufferAreInvalid(t *testing.T) {
	env := newEnv(t)
	host := env.Context.Host()
	before := host.Now()
	if _, err := env.Context.CreateBuffer(opencl.MemReadWrite|opencl.MemCopyHostPtr, 16*4, make(kernels.Words, 17)); !errors.Is(err, opencl.ErrInvalidValue) {
		t.Fatalf("CreateBuffer with 17 words for 16: err = %v, want ErrInvalidValue", err)
	}
	if now := host.Now(); now != before {
		t.Fatalf("a rejected CreateBuffer advanced the host clock by %v", now-before)
	}
	b, err := env.Context.CreateBuffer(opencl.MemReadWrite, 16*4, nil)
	if err != nil {
		t.Fatal(err)
	}
	before = host.Now()
	if _, err := env.Queue.EnqueueWriteBuffer(b, true, make(kernels.Words, 17)); !errors.Is(err, opencl.ErrInvalidValue) {
		t.Fatalf("EnqueueWriteBuffer of 17 words into 16: err = %v, want ErrInvalidValue", err)
	}
	if _, err := env.Queue.EnqueueReadBuffer(b, true, make(kernels.Words, 17)); !errors.Is(err, opencl.ErrInvalidValue) {
		t.Fatalf("EnqueueReadBuffer of 16 words into 17: err = %v, want ErrInvalidValue", err)
	}
	if now := host.Now(); now != before {
		t.Fatalf("rejected transfers advanced the host clock by %v", now-before)
	}

	src := f32Words(16, 1)
	if _, err := env.Context.CreateBuffer(opencl.MemReadWrite|opencl.MemCopyHostPtr, 16*4, src[:3]); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Queue.EnqueueWriteBuffer(b, true, src); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{16, 3} {
		dst := make(kernels.Words, n)
		if _, err := env.Queue.EnqueueReadBuffer(b, true, dst); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(dst, src[:n]) {
			t.Fatalf("EnqueueReadBuffer of %d words = %v, want %v", n, dst, src[:n])
		}
	}
}
