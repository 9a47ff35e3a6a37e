package vulkan_test

import (
	"errors"
	"testing"

	"vcomputebench/internal/faults"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/micro"
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/vulkan"
	"vcomputebench/internal/vulkan/vkutil"
)

// newDispatch sets Vulkan up on a fresh GTX 1050 Ti and records one
// vectoradd dispatch into an executable command buffer.
func newDispatch(t *testing.T) (*hw.Device, *hw.Host, *vkutil.Env, *vulkan.CommandBuffer) {
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
	const n = 1024
	bufs := make([]*vkutil.Buffer, 3)
	for i := range bufs {
		if bufs[i], err = env.NewDeviceBuffer(n * 4); err != nil {
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
		cb.CmdPushConstants(pipe.Layout, 0, kernels.Words{n}),
		cb.CmdDispatch(n/256, 1, 1),
		cb.End(),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	return dev, host, env, cb
}

func submit(env *vkutil.Env, cb *vulkan.CommandBuffer, fence *vulkan.Fence) (vulkan.SubmitStats, error) {
	return env.Queue.Submit([]vulkan.SubmitInfo{{CommandBuffers: []*vulkan.CommandBuffer{cb}}}, fence)
}

// TestFenceWaitWithoutSubmitIsInvalid: waiting on a fence no submission will
// signal is a validation error, not a hang or a silent no-op.
func TestFenceWaitWithoutSubmitIsInvalid(t *testing.T) {
	_, _, env, _ := newDispatch(t)
	if err := env.Device.CreateFence().Wait(); !errors.Is(err, vulkan.ErrValidation) {
		t.Fatalf("Wait on an unsubmitted fence: err = %v, want ErrValidation", err)
	}
}

// TestFenceWaitEndsAtCompletionPlusSyncLatency: after a submission and a wait
// on its fence, the host clock stands at the submission's completion plus the
// driver's synchronisation latency.
func TestFenceWaitEndsAtCompletionPlusSyncLatency(t *testing.T) {
	dev, host, env, cb := newDispatch(t)
	fence := env.Device.CreateFence()
	stats, err := submit(env, cb, fence)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dispatches != 1 || stats.KernelTime.D <= 0 {
		t.Fatalf("submit stats = %+v, want one dispatch with positive kernel time", stats)
	}
	if err := fence.Wait(); err != nil {
		t.Fatal(err)
	}
	latency := dev.Profile().Drivers[hw.APIVulkan].SyncLatency
	if got, want := host.Now(), stats.CompletionTime+latency; got != want {
		t.Fatalf("host time after the fence wait = %v, want completion %v + sync latency %v = %v",
			got, stats.CompletionTime, latency, want)
	}
}

// TestSubmitSurfacesDeviceFaults: a fault raised by the device's fault hook
// surfaces from Submit as a lost device, with the fault itself still
// reachable through the wrapping so the runner can classify it.
func TestSubmitSurfacesDeviceFaults(t *testing.T) {
	dev, _, env, cb := newDispatch(t)
	fault := &faults.Error{Class: faults.DriverFault, Site: faults.Site{Platform: "gtx1050ti", Benchmark: "vectoradd"}}
	dev.SetFaultHook(func() error { return fault })
	_, err := submit(env, cb, nil)
	if !errors.Is(err, vulkan.ErrDeviceLost) {
		t.Fatalf("Submit error = %v, want ErrDeviceLost", err)
	}
	if !errors.Is(err, fault) {
		t.Fatalf("Submit error = %v does not wrap the injected fault", err)
	}
	var fe *faults.Error
	if !errors.As(err, &fe) || fe.Class != faults.DriverFault {
		t.Fatalf("Submit error = %v, want a *faults.Error of class driver-fault", err)
	}
}

// hostVisibleMemory allocates n bytes of host-visible memory on env's device.
func hostVisibleMemory(t *testing.T, env *vkutil.Env, n int64) *vulkan.DeviceMemory {
	t.Helper()
	mem, err := env.Device.AllocateMemory(vulkan.MemoryAllocateInfo{AllocationSize: n, MemoryTypeIndex: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mem.Free() })
	return mem
}

// TestMapMappedMemoryFails: vkMapMemory on memory that is already host
// mapped is invalid (VUID-vkMapMemory-memory-00678); the second Map fails
// with the map error instead of handing out a second view. After Unmap the
// memory maps again, and the new view sees what was written through the
// first.
func TestMapMappedMemoryFails(t *testing.T) {
	_, _, env, _ := newDispatch(t)
	mem := hostVisibleMemory(t, env, 64)
	w, err := mem.Map(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	w[3] = 7
	if _, err := mem.Map(0, 16); !errors.Is(err, vulkan.ErrMemoryMapFailed) {
		t.Fatalf("second Map of mapped memory: err = %v, want ErrMemoryMapFailed", err)
	}
	mem.Unmap()
	again, err := mem.Map(0, 0)
	if err != nil {
		t.Fatalf("Map after Unmap: %v", err)
	}
	if len(again) != 16 || again[3] != 7 {
		t.Fatalf("remapped view = %v, want 16 words with word 3 = 7", again)
	}
	mem.Unmap()
}

// TestMapRejectsDeviceLocalAndBadRanges: device-local memory of a discrete
// GPU is not host visible, and a range outside the allocation or off the
// word alignment is a validation error. A failed Map leaves the memory
// unmapped.
func TestMapRejectsDeviceLocalAndBadRanges(t *testing.T) {
	_, _, env, _ := newDispatch(t)
	local, err := env.Device.AllocateMemory(vulkan.MemoryAllocateInfo{AllocationSize: 64, MemoryTypeIndex: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Free()
	if _, err := local.Map(0, 0); !errors.Is(err, vulkan.ErrMemoryMapFailed) {
		t.Fatalf("Map of device-local memory on a discrete GPU: err = %v, want ErrMemoryMapFailed", err)
	}
	mem := hostVisibleMemory(t, env, 64)
	for _, r := range [][2]int64{{0, 128}, {2, 8}, {-4, 8}} {
		if _, err := mem.Map(r[0], r[1]); !errors.Is(err, vulkan.ErrValidation) {
			t.Fatalf("Map(%d, %d): err = %v, want ErrValidation", r[0], r[1], err)
		}
	}
	if _, err := mem.Map(4, 8); err != nil {
		t.Fatalf("Map of a valid range after failed maps: %v", err)
	}
	mem.Unmap()
}
