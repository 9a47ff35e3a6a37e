package vulkan_test

import (
	"math"
	"testing"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/micro"
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/vulkan"
	"vcomputebench/internal/vulkan/vkutil"
)

// vectorAddWords is how many elements vectorAdd's buffers hold.
const vectorAddWords = 1024

// vectorAdd sets Vulkan up on a fresh device of the platform, on memo unless
// it is nil, and records one vectoradd dispatch over three device buffers x,
// y and z into an executable command buffer.
func vectorAdd(t *testing.T, p *platforms.Platform, memo *hw.DispatchMemo) (*vkutil.Env, []*vkutil.Buffer, *vulkan.CommandBuffer) {
	t.Helper()
	dev, err := p.NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	if memo != nil {
		dev.SetDispatchMemo(memo)
	}
	env, err := vkutil.Setup(hw.NewHost(dev, hw.APIVulkan), dev)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	bufs := make([]*vkutil.Buffer, 3)
	for i := range bufs {
		if bufs[i], err = env.NewDeviceBuffer(vectorAddWords * 4); err != nil {
			t.Fatal(err)
		}
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
		cb.CmdBindPipeline(vulkan.PipelineBindPointCompute, pipe.Pipeline),
		cb.CmdBindDescriptorSets(vulkan.PipelineBindPointCompute, pipe.Layout, set),
		cb.CmdPushConstants(pipe.Layout, 0, kernels.Words{vectorAddWords}),
		cb.CmdDispatch(vectorAddWords/256, 1, 1),
		cb.End(),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	return env, bufs, cb
}

// mapAll maps the whole memory of every buffer.
func mapAll(t *testing.T, bufs []*vkutil.Buffer) []kernels.Words {
	t.Helper()
	views := make([]kernels.Words, len(bufs))
	for i, b := range bufs {
		var err error
		if views[i], err = b.Mem.Map(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	return views
}

// fill sets element i of the view to scale*i.
func fill(view kernels.Words, scale float32) {
	for i := range view {
		view[i] = math.Float32bits(scale * float32(i))
	}
}

// submitAndWait submits the command buffer and waits for its fence.
func submitAndWait(t *testing.T, env *vkutil.Env, cb *vulkan.CommandBuffer) {
	t.Helper()
	fence := env.Device.CreateFence()
	if _, err := submit(env, cb, fence); err != nil {
		t.Fatal(err)
	}
	if err := fence.Wait(); err != nil {
		t.Fatal(err)
	}
}

// requireSum fails unless z holds x+y element by element.
func requireSum(t *testing.T, what string, x, y, z kernels.Words) {
	t.Helper()
	for i := range z {
		if got, want := math.Float32frombits(z[i]), math.Float32frombits(x[i])+math.Float32frombits(y[i]); got != want {
			t.Fatalf("%s: z[%d] = %v, want x+y = %v", what, i, got, want)
		}
	}
}

// persistentRun maps x, y and z on the Adreno 506, whose device-local memory
// is host visible, for the whole run: the host fills x and y through their
// views and submits vectoradd, then writes x through its view and submits
// again. After each submit z's view must hold x+y. It returns how many
// dispatches the run executed.
func persistentRun(t *testing.T, memo *hw.DispatchMemo) (executed uint64) {
	t.Helper()
	env, bufs, cb := vectorAdd(t, platforms.Adreno506(), memo)
	views := mapAll(t, bufs)
	x, y, z := views[0], views[1], views[2]
	e0, _ := hw.DispatchCounts()
	fill(x, 1)
	fill(y, 2)
	submitAndWait(t, env, cb)
	requireSum(t, "first submit", x, y, z)
	fill(x, 3)
	submitAndWait(t, env, cb)
	requireSum(t, "second submit, after a host write through x's view", x, y, z)
	e1, _ := hw.DispatchCounts()
	return e1 - e0
}

// TestPersistentMappingStaysCoherent: memory mapped for a whole run is host
// coherent at every submit, as HOST_COHERENT memory is: the device reads
// what the host wrote through a view, and the view shows what the device
// wrote. A mapped buffer enters the dispatch memo like any other, so a
// sibling run on the leader's memo takes both dispatches from it.
func TestPersistentMappingStaysCoherent(t *testing.T) {
	memo := hw.NewDispatchMemo()
	if e := persistentRun(t, memo); e != 2 {
		t.Fatalf("the leader executed %d of 2 dispatches", e)
	}
	if e := persistentRun(t, memo); e != 0 {
		t.Fatalf("the sibling executed %d of 2 dispatches, want both from the memo", e)
	}
	if memo.Missed() {
		t.Fatal("the sibling missed")
	}
}

// TestFreeDropsMappedView: freeing mapped memory unmaps it, as vkFreeMemory
// does, so a later submit on the device leaves the freed memory alone, and
// the memory cannot be mapped again.
func TestFreeDropsMappedView(t *testing.T) {
	env, bufs, cb := vectorAdd(t, platforms.Adreno506(), nil)
	mem := hostVisibleMemory(t, env, 64)
	if _, err := mem.Map(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := mem.Free(); err != nil {
		t.Fatal(err)
	}
	views := mapAll(t, bufs)
	fill(views[0], 1)
	fill(views[1], 2)
	submitAndWait(t, env, cb)
	requireSum(t, "submit after freeing mapped memory", views[0], views[1], views[2])
	if _, err := mem.Map(0, 0); err == nil {
		t.Fatal("freed memory mapped again")
	}
}

// TestRemapShowsDeviceWrites: what the host writes through a view before
// Unmap reaches the device, and a view mapped after a submit shows what the
// device wrote, as Listing 1's map, memcpy and unmap sequence relies on.
func TestRemapShowsDeviceWrites(t *testing.T) {
	env, bufs, cb := vectorAdd(t, platforms.Adreno506(), nil)
	views := mapAll(t, bufs)
	x, y := views[0], views[1]
	fill(x, 1)
	fill(y, 2)
	for _, b := range bufs {
		b.Mem.Unmap()
	}
	submitAndWait(t, env, cb)
	requireSum(t, "view mapped after the submit", x, y, mapAll(t, bufs[2:])[0])
}
