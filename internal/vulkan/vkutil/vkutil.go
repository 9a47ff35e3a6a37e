// Package vkutil provides the host-side convenience layer the VComputeBench
// benchmarks share for their Vulkan implementations: environment setup
// (instance, device, queue, pools), buffer creation with staging uploads and
// readbacks, and pipeline/descriptor-set construction from a registered kernel
// program.
//
// It deliberately leaves command-buffer construction to the benchmarks —
// recording dispatches and memory barriers is exactly where the paper's
// Vulkan-specific optimisations live — but removes the repetitive ~40 lines of
// buffer plumbing per resource that §VI-A complains about.
package vkutil

import (
	"fmt"

	"vcomputebench/internal/glsl"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/vulkan"
)

// BindCompute is shorthand for the compute pipeline bind point, used by every
// benchmark when recording CmdBindPipeline / CmdBindDescriptorSets.
const BindCompute = vulkan.PipelineBindPointCompute

// Env is a ready-to-use Vulkan compute environment on one device.
type Env struct {
	Instance *vulkan.Instance
	Physical *vulkan.PhysicalDevice
	Device   *vulkan.Device
	Queue    *vulkan.Queue
	DescPool *vulkan.DescriptorPool
	CmdPool  *vulkan.CommandPool

	// staging is the persistent transfer buffer Upload/Download reuse, grown
	// on demand. Allocating a fresh staging buffer per transfer — as the naive
	// translation of Listing 1 does — charges vkAllocateMemory's AllocOverhead
	// inside timed loops, which mis-accounts iterative algorithms (the bfs
	// stop-flag readback pays it twice per level); real iterative Vulkan code
	// keeps one staging buffer alive.
	staging *Buffer
}

// Setup initialises Vulkan on the device following the sequence of Listing 1:
// instance, physical device enumeration, logical device with one compute
// queue, plus a descriptor pool and a command pool for later use.
func Setup(host *hw.Host, dev *hw.Device) (*Env, error) {
	inst, err := vulkan.CreateInstance(host, vulkan.InstanceCreateInfo{ApplicationName: "vcomputebench"}, dev)
	if err != nil {
		return nil, err
	}
	gpus, err := inst.EnumeratePhysicalDevices()
	if err != nil {
		return nil, err
	}
	phys := gpus[0]
	device, err := phys.CreateDevice(vulkan.DeviceCreateInfo{
		QueueCreateInfos: []vulkan.DeviceQueueCreateInfo{{QueueFamilyIndex: 0, QueueCount: 1}},
	})
	if err != nil {
		return nil, err
	}
	queue, err := device.GetQueue(0, 0)
	if err != nil {
		return nil, err
	}
	pool, err := device.CreateDescriptorPool(vulkan.DescriptorPoolCreateInfo{
		MaxSets: 64,
		PoolSizes: []vulkan.DescriptorPoolSize{
			{Type: vulkan.DescriptorTypeStorageBuffer, Count: 512},
		},
	})
	if err != nil {
		return nil, err
	}
	cmdPool, err := device.CreateCommandPool(vulkan.CommandPoolCreateInfo{QueueFamilyIndex: 0})
	if err != nil {
		return nil, err
	}
	return &Env{Instance: inst, Physical: phys, Device: device, Queue: queue, DescPool: pool, CmdPool: cmdPool}, nil
}

// Close destroys the environment's objects.
func (e *Env) Close() {
	if e == nil {
		return
	}
	e.staging.Free()
	e.CmdPool.Destroy()
	e.DescPool.Destroy()
	e.Device.Destroy()
	e.Instance.Destroy()
}

// Buffer is a device-local storage buffer with its backing memory.
type Buffer struct {
	Buf *vulkan.Buffer
	Mem *vulkan.DeviceMemory
	env *Env
}

// Size returns the buffer size in bytes.
func (b *Buffer) Size() int64 { return b.Buf.Size() }

// Free releases the buffer and its memory.
func (b *Buffer) Free() {
	if b == nil {
		return
	}
	b.Buf.Destroy()
	_ = b.Mem.Free()
}

// NewDeviceBuffer creates a device-local storage buffer of the given size,
// walking the create / get requirements / find memory type / allocate / bind
// sequence from Listing 1.
func (e *Env) NewDeviceBuffer(sizeBytes int64) (*Buffer, error) {
	buf, err := e.Device.CreateBuffer(vulkan.BufferCreateInfo{
		Size: sizeBytes,
		Usage: vulkan.BufferUsageStorageBufferBit | vulkan.BufferUsageTransferDstBit |
			vulkan.BufferUsageTransferSrcBit,
	})
	if err != nil {
		return nil, err
	}
	reqs := e.Device.GetBufferMemoryRequirements(buf)
	memProps := e.Physical.MemoryProperties()
	typeIndex, err := memProps.FindMemoryTypeIndex(reqs.MemoryTypeBits, vulkan.MemoryPropertyDeviceLocalBit)
	if err != nil {
		return nil, err
	}
	mem, err := e.Device.AllocateMemory(vulkan.MemoryAllocateInfo{AllocationSize: reqs.Size, MemoryTypeIndex: typeIndex})
	if err != nil {
		buf.Destroy()
		return nil, err
	}
	if err := e.Device.BindBufferMemory(buf, mem, 0); err != nil {
		_ = mem.Free()
		buf.Destroy()
		return nil, err
	}
	return &Buffer{Buf: buf, Mem: mem, env: e}, nil
}

// stagingFor returns the environment's persistent staging buffer, (re)created
// when the requested size outgrows it. The buffer stays alive until Close, so
// steady-state transfers pay no buffer-creation or memory-allocation cost.
func (e *Env) stagingFor(sizeBytes int64) (*Buffer, error) {
	if e.staging != nil && e.staging.Size() >= sizeBytes {
		return e.staging, nil
	}
	if e.staging != nil {
		e.staging.Free()
		e.staging = nil
	}
	s, err := e.stagingBuffer(sizeBytes)
	if err != nil {
		return nil, err
	}
	e.staging = s
	return s, nil
}

// stagingBuffer creates a host-visible buffer for uploads/readbacks.
func (e *Env) stagingBuffer(sizeBytes int64) (*Buffer, error) {
	buf, err := e.Device.CreateBuffer(vulkan.BufferCreateInfo{
		Size:  sizeBytes,
		Usage: vulkan.BufferUsageTransferSrcBit | vulkan.BufferUsageTransferDstBit,
	})
	if err != nil {
		return nil, err
	}
	reqs := e.Device.GetBufferMemoryRequirements(buf)
	mem, err := e.Device.AllocateMemory(vulkan.MemoryAllocateInfo{AllocationSize: reqs.Size, MemoryTypeIndex: 1})
	if err != nil {
		buf.Destroy()
		return nil, err
	}
	if err := e.Device.BindBufferMemory(buf, mem, 0); err != nil {
		_ = mem.Free()
		buf.Destroy()
		return nil, err
	}
	return &Buffer{Buf: buf, Mem: mem, env: e}, nil
}

// Upload copies host words into the device buffer through the environment's
// persistent staging buffer and a transfer command buffer. The words the
// host writes into the staging buffer are copied unless they were registered
// with hw.MemorySystem.Freeze, in which case both buffers alias them.
func (e *Env) Upload(dst *Buffer, data kernels.Words) error {
	if int64(len(data))*4 > dst.Size() {
		return fmt.Errorf("vkutil: upload of %d words into buffer of %d bytes", len(data), dst.Size())
	}
	staging, err := e.stagingFor(dst.Size())
	if err != nil {
		return err
	}
	if err := staging.Mem.Write(0, data); err != nil {
		return err
	}

	cbs, err := e.Device.AllocateCommandBuffers(vulkan.CommandBufferAllocateInfo{CommandPool: e.CmdPool, Count: 1})
	if err != nil {
		return err
	}
	cb := cbs[0]
	if err := cb.Begin(); err != nil {
		return err
	}
	if err := cb.CmdCopyBuffer(staging.Buf, dst.Buf, vulkan.BufferCopy{Size: int64(len(data)) * 4}); err != nil {
		return err
	}
	if err := cb.End(); err != nil {
		return err
	}
	fence := e.Device.CreateFence()
	defer fence.Destroy()
	if _, err := e.Queue.Submit([]vulkan.SubmitInfo{{CommandBuffers: []*vulkan.CommandBuffer{cb}}}, fence); err != nil {
		return err
	}
	return fence.Wait()
}

// Download reads the device buffer back to host words through the
// environment's persistent staging buffer.
func (e *Env) Download(src *Buffer) (kernels.Words, error) {
	staging, err := e.stagingFor(src.Size())
	if err != nil {
		return nil, err
	}

	cbs, err := e.Device.AllocateCommandBuffers(vulkan.CommandBufferAllocateInfo{CommandPool: e.CmdPool, Count: 1})
	if err != nil {
		return nil, err
	}
	cb := cbs[0]
	if err := cb.Begin(); err != nil {
		return nil, err
	}
	if err := cb.CmdCopyBuffer(src.Buf, staging.Buf); err != nil {
		return nil, err
	}
	if err := cb.End(); err != nil {
		return nil, err
	}
	fence := e.Device.CreateFence()
	defer fence.Destroy()
	if _, err := e.Queue.Submit([]vulkan.SubmitInfo{{CommandBuffers: []*vulkan.CommandBuffer{cb}}}, fence); err != nil {
		return nil, err
	}
	if err := fence.Wait(); err != nil {
		return nil, err
	}
	// The persistent staging buffer may be larger than src; read only the
	// region the copy filled.
	out := make(kernels.Words, kernels.WordsForBytes(int(src.Size())))
	if err := staging.Mem.Read(0, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DownloadF32 reads the buffer back as float32 values.
func (e *Env) DownloadF32(src *Buffer) ([]float32, error) {
	w, err := e.Download(src)
	if err != nil {
		return nil, err
	}
	return kernels.WordsToF32(w), nil
}

// Pipeline bundles a compute pipeline with its layouts.
type Pipeline struct {
	Pipeline  *vulkan.Pipeline
	Layout    *vulkan.PipelineLayout
	SetLayout *vulkan.DescriptorSetLayout
	Program   *kernels.Program
	env       *Env
}

// NewComputePipeline builds the full pipeline stack for a registered kernel:
// GLSL -> SPIR-V compile, shader module, descriptor set layout matching the
// kernel's bindings, pipeline layout with the kernel's push-constant range and
// finally the compute pipeline.
func (e *Env) NewComputePipeline(kernelName string) (*Pipeline, error) {
	prog, err := kernels.Lookup(kernelName)
	if err != nil {
		return nil, err
	}
	code, err := glsl.CompileProgram(prog)
	if err != nil {
		return nil, err
	}
	module, err := e.Device.CreateShaderModule(vulkan.ShaderModuleCreateInfo{Code: code})
	if err != nil {
		return nil, err
	}
	bindings := make([]vulkan.DescriptorSetLayoutBinding, prog.Bindings)
	for i := range bindings {
		bindings[i] = vulkan.DescriptorSetLayoutBinding{Binding: i, DescriptorType: vulkan.DescriptorTypeStorageBuffer, Count: 1}
	}
	setLayout, err := e.Device.CreateDescriptorSetLayout(vulkan.DescriptorSetLayoutCreateInfo{Bindings: bindings})
	if err != nil {
		return nil, err
	}
	var pushRanges []vulkan.PushConstantRange
	if prog.PushConstantWords > 0 {
		pushRanges = append(pushRanges, vulkan.PushConstantRange{
			StageFlags: vulkan.ShaderStageComputeBit,
			Offset:     0,
			Size:       prog.PushConstantWords * 4,
		})
	}
	layout, err := e.Device.CreatePipelineLayout(vulkan.PipelineLayoutCreateInfo{
		SetLayouts:         []*vulkan.DescriptorSetLayout{setLayout},
		PushConstantRanges: pushRanges,
	})
	if err != nil {
		return nil, err
	}
	pipes, err := e.Device.CreateComputePipelines(vulkan.ComputePipelineCreateInfo{
		Stage:  vulkan.PipelineShaderStageCreateInfo{Stage: vulkan.ShaderStageComputeBit, Module: module, Name: prog.Name},
		Layout: layout,
	})
	if err != nil {
		return nil, err
	}
	return &Pipeline{Pipeline: pipes[0], Layout: layout, SetLayout: setLayout, Program: prog, env: e}, nil
}

// NewBoundSet allocates a descriptor set for the pipeline and writes the given
// buffers to bindings 0..n-1.
func (e *Env) NewBoundSet(p *Pipeline, buffers ...*Buffer) (*vulkan.DescriptorSet, error) {
	if len(buffers) < p.Program.Bindings {
		return nil, fmt.Errorf("vkutil: kernel %q needs %d buffers, got %d", p.Program.Name, p.Program.Bindings, len(buffers))
	}
	sets, err := e.DescPool.AllocateDescriptorSets(p.SetLayout)
	if err != nil {
		return nil, err
	}
	writes := make([]vulkan.WriteDescriptorSet, len(buffers))
	for i, b := range buffers {
		writes[i] = vulkan.WriteDescriptorSet{
			DstSet:         sets[0],
			DstBinding:     i,
			DescriptorType: vulkan.DescriptorTypeStorageBuffer,
			BufferInfo:     vulkan.DescriptorBufferInfo{Buffer: b.Buf, Range: b.Size()},
		}
	}
	if err := e.Device.UpdateDescriptorSets(writes...); err != nil {
		return nil, err
	}
	return sets[0], nil
}

// NewCommandBuffer allocates a primary command buffer from the environment's
// pool.
func (e *Env) NewCommandBuffer() (*vulkan.CommandBuffer, error) {
	cbs, err := e.Device.AllocateCommandBuffers(vulkan.CommandBufferAllocateInfo{CommandPool: e.CmdPool, Count: 1})
	if err != nil {
		return nil, err
	}
	return cbs[0], nil
}

// SubmitAndWait submits the command buffer and blocks until it completes,
// returning the submission statistics.
func (e *Env) SubmitAndWait(cb *vulkan.CommandBuffer) (vulkan.SubmitStats, error) {
	fence := e.Device.CreateFence()
	defer fence.Destroy()
	stats, err := e.Queue.Submit([]vulkan.SubmitInfo{{CommandBuffers: []*vulkan.CommandBuffer{cb}}}, fence)
	if err != nil {
		return stats, err
	}
	return stats, fence.Wait()
}
