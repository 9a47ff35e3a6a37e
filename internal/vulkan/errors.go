// Package vulkan implements a Vulkan-1.0-style compute API on top of the
// simulated GPU in internal/hw. It follows the object model described in
// §III of the paper: instances, physical devices, logical devices, queue
// families, buffers and device memory, shader modules consuming SPIR-V,
// descriptor sets, compute pipelines, command pools/buffers with explicit
// recording, pipeline barriers, push constants, queue submission and fences.
//
// The package intentionally preserves Vulkan's verbosity (the paper's §VI-A
// point): creating a buffer requires creating the buffer object, querying its
// memory requirements, choosing a heap, allocating memory and binding the two,
// exactly as in Listing 1 of the paper. Each call records its cost — a host
// spend, a wait, the device-side cost of pipeline binds, barriers and
// dispatches — as one event in the run's hw.Host, which values it under the
// platform's driver profile and steps the run's timeline.
package vulkan

import "errors"

// Result-style errors mirroring VkResult error codes.
var (
	// ErrOutOfHostMemory corresponds to VK_ERROR_OUT_OF_HOST_MEMORY.
	ErrOutOfHostMemory = errors.New("vulkan: out of host memory")
	// ErrOutOfDeviceMemory corresponds to VK_ERROR_OUT_OF_DEVICE_MEMORY.
	ErrOutOfDeviceMemory = errors.New("vulkan: out of device memory")
	// ErrInitializationFailed corresponds to VK_ERROR_INITIALIZATION_FAILED.
	ErrInitializationFailed = errors.New("vulkan: initialization failed")
	// ErrIncompatibleDriver corresponds to VK_ERROR_INCOMPATIBLE_DRIVER.
	ErrIncompatibleDriver = errors.New("vulkan: incompatible driver")
	// ErrDeviceLost corresponds to VK_ERROR_DEVICE_LOST.
	ErrDeviceLost = errors.New("vulkan: device lost")
	// ErrInvalidShader corresponds to VK_ERROR_INVALID_SHADER_NV-style failures
	// of SPIR-V consumption.
	ErrInvalidShader = errors.New("vulkan: invalid shader module")
	// ErrValidation is returned when the validation layer detects incorrect
	// API usage (the tooling-layer checks described in §III-A).
	ErrValidation = errors.New("vulkan: validation error")
	// ErrFeatureNotPresent corresponds to VK_ERROR_FEATURE_NOT_PRESENT.
	ErrFeatureNotPresent = errors.New("vulkan: feature not present")
	// ErrMemoryMapFailed corresponds to VK_ERROR_MEMORY_MAP_FAILED.
	ErrMemoryMapFailed = errors.New("vulkan: memory map failed")
)
