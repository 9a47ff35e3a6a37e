package vkutil_test

import (
	"math"
	"slices"
	"testing"

	"vcomputebench/internal/bench"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/micro"
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/vulkan"
	"vcomputebench/internal/vulkan/vkutil"
)

func newEnv(t *testing.T) (*vkutil.Env, *hw.Host) {
	t.Helper()
	dev, err := platforms.GTX1050Ti().NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	host := hw.NewHost(dev, hw.APIVulkan)
	env, err := vkutil.Setup(host, dev)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	return env, host
}

// f32Words returns n float words counting up from base.
func f32Words(n int, base float32) kernels.Words {
	w := make(kernels.Words, n)
	for i := range w {
		w[i] = math.Float32bits(base + float32(i))
	}
	return w
}

func download(t *testing.T, env *vkutil.Env, b *vkutil.Buffer) kernels.Words {
	t.Helper()
	w, err := env.Download(b)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestUploadCopies pins the contract shared inputs rely on: Upload copies, so
// changing the host words afterwards leaves the device buffer as it was, and
// a kernel's stores into a buffer never reach the host words it was filled
// from.
func TestUploadCopies(t *testing.T) {
	env, _ := newEnv(t)
	const n = 1000
	hosts := []kernels.Words{f32Words(n, 1), f32Words(n, 5000), f32Words(n, -3)}
	wants := make([]kernels.Words, len(hosts))
	bufs := make([]*vkutil.Buffer, len(hosts))
	for i, host := range hosts {
		wants[i] = slices.Clone(host)
		b, err := env.NewDeviceBuffer(n * 4)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Free)
		if err := env.Upload(b, host); err != nil {
			t.Fatal(err)
		}
		bufs[i] = b
	}

	for _, host := range hosts {
		for j := range host {
			host[j] = 0xffffffff
		}
	}
	for i, b := range bufs {
		if !slices.Equal(download(t, env, b), wants[i]) {
			t.Fatalf("buffer %d changed with the host words it was uploaded from", i)
		}
	}
	for i, host := range hosts {
		copy(host, wants[i])
	}

	pipe, err := env.NewComputePipeline(micro.KernelVectorAdd)
	if err != nil {
		t.Fatal(err)
	}
	set, err := env.NewBoundSet(pipe, bufs...)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := env.NewCommandBuffer()
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []error{
		cb.Begin(),
		cb.CmdBindPipeline(vkutil.BindCompute, pipe.Pipeline),
		cb.CmdBindDescriptorSets(vkutil.BindCompute, pipe.Layout, set),
		cb.CmdPushConstants(pipe.Layout, 0, kernels.Words{n}),
		cb.CmdDispatch(bench.DivUp(n, 256), 1, 1),
		cb.End(),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	if _, err := env.SubmitAndWait(cb); err != nil {
		t.Fatal(err)
	}
	x, y, z := kernels.WordsToF32(wants[0]), kernels.WordsToF32(wants[1]), kernels.WordsToF32(download(t, env, bufs[2]))
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

// TestUploadRejectsLongerData: Upload refuses more words than the buffer
// holds, before charging anything to the host clock; shorter data fills a
// prefix.
func TestUploadRejectsLongerData(t *testing.T) {
	env, host := newEnv(t)
	b, err := env.NewDeviceBuffer(16 * 4)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Free()
	before := host.Now()
	if err := env.Upload(b, make(kernels.Words, 17)); err == nil {
		t.Fatal("Upload of 17 words into a 16-word buffer succeeded")
	}
	if now := host.Now(); now != before {
		t.Fatalf("a rejected upload advanced the host clock by %v", now-before)
	}
	src := f32Words(3, 1)
	if err := env.Upload(b, src); err != nil {
		t.Fatal(err)
	}
	if got := download(t, env, b); !slices.Equal(got[:3], src) || slices.ContainsFunc(got[3:], func(w uint32) bool { return w != 0 }) {
		t.Fatalf("Upload of 3 words left %v", got)
	}
}

// TestCopyBufferRegions: CmdCopyBuffer copies each recorded region, from its
// source offset to its destination offset, and leaves the rest of the
// destination as it was; offsets off the 4-byte word grid are rejected.
func TestCopyBufferRegions(t *testing.T) {
	env, _ := newEnv(t)
	const n = 64
	src, dst := f32Words(n, 0), f32Words(n, 1000)
	var bufs [2]*vkutil.Buffer
	for i, w := range []kernels.Words{src, dst} {
		b, err := env.NewDeviceBuffer(n * 4)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Free)
		if err := env.Upload(b, w); err != nil {
			t.Fatal(err)
		}
		bufs[i] = b
	}
	cb, err := env.NewCommandBuffer()
	if err != nil {
		t.Fatal(err)
	}
	if err := cb.CmdCopyBuffer(bufs[0].Buf, bufs[1].Buf, vulkan.BufferCopy{SrcOffset: 2, Size: 4}); err == nil {
		t.Fatal("a region at source offset 2 was recorded")
	}
	for _, step := range []error{
		cb.Begin(),
		cb.CmdCopyBuffer(bufs[0].Buf, bufs[1].Buf,
			vulkan.BufferCopy{SrcOffset: 16, DstOffset: 8, Size: 32},
			vulkan.BufferCopy{SrcOffset: 0, DstOffset: 200, Size: 8}),
		cb.End(),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	stats, err := env.SubmitAndWait(cb)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CopyBytes != 40 {
		t.Fatalf("CopyBytes = %d, want the regions' 40", stats.CopyBytes)
	}
	want := slices.Clone(dst)
	copy(want[2:10], src[4:12])
	copy(want[50:52], src[0:2])
	if got := download(t, env, bufs[1]); !slices.Equal(got, want) {
		t.Fatalf("after the region copies the destination holds %v, want %v", got, want)
	}
}

// TestShortUploadAfterLongerOne: an upload of fewer words than the buffer
// holds writes only them, though the persistent staging buffer still holds a
// longer earlier upload.
func TestShortUploadAfterLongerOne(t *testing.T) {
	env, _ := newEnv(t)
	const n = 64
	var bufs [2]*vkutil.Buffer
	for i := range bufs {
		b, err := env.NewDeviceBuffer(n * 4)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Free)
		bufs[i] = b
	}
	if err := env.Upload(bufs[0], f32Words(n, 1)); err != nil {
		t.Fatal(err)
	}
	short := f32Words(10, 500)
	if err := env.Upload(bufs[1], short); err != nil {
		t.Fatal(err)
	}
	want := make(kernels.Words, n)
	copy(want, short)
	if got := download(t, env, bufs[1]); !slices.Equal(got, want) {
		t.Fatalf("a 10-word upload left %v, want %v", got, want)
	}
}
