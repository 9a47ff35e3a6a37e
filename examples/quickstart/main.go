// Command quickstart reproduces the paper's Listing 1: a vector addition
// written directly against the low-level Vulkan compute API — instance,
// device and queue creation, the verbose buffer / memory-requirements /
// allocate / bind sequence, SPIR-V shader module and compute pipeline
// creation, descriptor updates, command-buffer recording and queue submission.
package main

import (
	"fmt"
	"log"

	"vcomputebench/internal/glsl"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	_ "vcomputebench/internal/micro" // registers the vectoradd kernel + GLSL
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/vulkan"
)

func main() {
	const n = 1 << 20 // one million elements, as in §IV-A
	platform := platforms.GTX1050Ti()
	gpu, err := platform.NewDevice()
	if err != nil {
		log.Fatal(err)
	}
	host := hw.NewHost(gpu, hw.APIVulkan)

	// Enumerate devices, then create instance, queues and device.
	instance, err := vulkan.CreateInstance(host, vulkan.InstanceCreateInfo{ApplicationName: "vectorAdd"}, gpu)
	if err != nil {
		log.Fatal(err)
	}
	gpus, err := instance.EnumeratePhysicalDevices()
	if err != nil {
		log.Fatal(err)
	}
	physical := gpus[0]
	fmt.Printf("using %s (%s)\n", physical.Properties().DeviceName, physical.Properties().APIVersion)
	device, err := physical.CreateDevice(vulkan.DeviceCreateInfo{
		QueueCreateInfos: []vulkan.DeviceQueueCreateInfo{{QueueFamilyIndex: 0, QueueCount: 1}},
	})
	if err != nil {
		log.Fatal(err)
	}
	computeQueue, err := device.GetQueue(0, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Create each buffer, query its requirements, pick a heap, allocate and
	// bind — about 40 lines per buffer in real Vulkan (§VI-A).
	makeBuffer := func(name string) (*vulkan.Buffer, *vulkan.DeviceMemory) {
		buf, err := device.CreateBuffer(vulkan.BufferCreateInfo{
			Size:  n * 4,
			Usage: vulkan.BufferUsageStorageBufferBit | vulkan.BufferUsageTransferDstBit,
		})
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		reqs := device.GetBufferMemoryRequirements(buf)
		memType, err := physical.MemoryProperties().FindMemoryTypeIndex(reqs.MemoryTypeBits, vulkan.MemoryPropertyHostVisibleBit)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		mem, err := device.AllocateMemory(vulkan.MemoryAllocateInfo{AllocationSize: reqs.Size, MemoryTypeIndex: memType})
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		if err := device.BindBufferMemory(buf, mem, 0); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		return buf, mem
	}
	bufX, memX := makeBuffer("X")
	bufY, memY := makeBuffer("Y")
	bufZ, _ := makeBuffer("Z")

	// Fill X and Y through mapped memory.
	x, _ := memX.Map(0, 0)
	y, _ := memY.Map(0, 0)
	for i := 0; i < n; i++ {
		x[i] = kernels.F32ToWords([]float32{float32(i % 100)})[0]
		y[i] = kernels.F32ToWords([]float32{float32(i % 50)})[0]
	}
	memX.Unmap()
	memY.Unmap()

	// Compile the 10-line GLSL kernel to SPIR-V and build the compute
	// pipeline.
	prog, err := kernels.Lookup("vectoradd")
	if err != nil {
		log.Fatal(err)
	}
	code, err := glsl.CompileProgram(prog)
	if err != nil {
		log.Fatal(err)
	}
	module, err := device.CreateShaderModule(vulkan.ShaderModuleCreateInfo{Code: code})
	if err != nil {
		log.Fatal(err)
	}
	setLayout, err := device.CreateDescriptorSetLayout(vulkan.DescriptorSetLayoutCreateInfo{
		Bindings: []vulkan.DescriptorSetLayoutBinding{
			{Binding: 0, DescriptorType: vulkan.DescriptorTypeStorageBuffer},
			{Binding: 1, DescriptorType: vulkan.DescriptorTypeStorageBuffer},
			{Binding: 2, DescriptorType: vulkan.DescriptorTypeStorageBuffer},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	layout, err := device.CreatePipelineLayout(vulkan.PipelineLayoutCreateInfo{
		SetLayouts:         []*vulkan.DescriptorSetLayout{setLayout},
		PushConstantRanges: []vulkan.PushConstantRange{{StageFlags: vulkan.ShaderStageComputeBit, Size: 4}},
	})
	if err != nil {
		log.Fatal(err)
	}
	pipelines, err := device.CreateComputePipelines(vulkan.ComputePipelineCreateInfo{
		Stage:  vulkan.PipelineShaderStageCreateInfo{Stage: vulkan.ShaderStageComputeBit, Module: module, Name: "vectoradd"},
		Layout: layout,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Bind buffers to the pipeline through a descriptor set.
	pool, err := device.CreateDescriptorPool(vulkan.DescriptorPoolCreateInfo{
		MaxSets:   1,
		PoolSizes: []vulkan.DescriptorPoolSize{{Type: vulkan.DescriptorTypeStorageBuffer, Count: 3}},
	})
	if err != nil {
		log.Fatal(err)
	}
	sets, err := pool.AllocateDescriptorSets(setLayout)
	if err != nil {
		log.Fatal(err)
	}
	err = device.UpdateDescriptorSets(
		vulkan.WriteDescriptorSet{DstSet: sets[0], DstBinding: 0, DescriptorType: vulkan.DescriptorTypeStorageBuffer, BufferInfo: vulkan.DescriptorBufferInfo{Buffer: bufX}},
		vulkan.WriteDescriptorSet{DstSet: sets[0], DstBinding: 1, DescriptorType: vulkan.DescriptorTypeStorageBuffer, BufferInfo: vulkan.DescriptorBufferInfo{Buffer: bufY}},
		vulkan.WriteDescriptorSet{DstSet: sets[0], DstBinding: 2, DescriptorType: vulkan.DescriptorTypeStorageBuffer, BufferInfo: vulkan.DescriptorBufferInfo{Buffer: bufZ}},
	)
	if err != nil {
		log.Fatal(err)
	}

	// Record the dispatch into a command buffer and submit it.
	cmdPool, err := device.CreateCommandPool(vulkan.CommandPoolCreateInfo{QueueFamilyIndex: 0})
	if err != nil {
		log.Fatal(err)
	}
	cbs, err := device.AllocateCommandBuffers(vulkan.CommandBufferAllocateInfo{CommandPool: cmdPool, Count: 1})
	if err != nil {
		log.Fatal(err)
	}
	cb := cbs[0]
	must(cb.Begin())
	must(cb.CmdBindPipeline(vulkan.PipelineBindPointCompute, pipelines[0]))
	must(cb.CmdBindDescriptorSets(vulkan.PipelineBindPointCompute, layout, sets[0]))
	must(cb.CmdPushConstants(layout, 0, kernels.Words{uint32(n)}))
	must(cb.CmdDispatch(n/256, 1, 1))
	must(cb.End())

	fence := device.CreateFence()
	stats, err := computeQueue.Submit([]vulkan.SubmitInfo{{CommandBuffers: []*vulkan.CommandBuffer{cb}}}, fence)
	if err != nil {
		log.Fatal(err)
	}
	must(fence.Wait())

	fmt.Printf("dispatched %d workgroups in %v of simulated device time\n", n/256, stats.KernelTime.D)
	fmt.Printf("host (std::chrono-style) time including setup: %v\n", host.Now())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
