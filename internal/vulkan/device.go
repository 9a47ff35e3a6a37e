package vulkan

import (
	"fmt"
	"slices"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
)

// DeviceQueueCreateInfo requests queues from one family at device creation.
type DeviceQueueCreateInfo struct {
	QueueFamilyIndex int
	QueueCount       int
}

// DeviceCreateInfo configures CreateDevice.
type DeviceCreateInfo struct {
	QueueCreateInfos []DeviceQueueCreateInfo
}

// Device is a logical device: the application's connection to a physical
// device, owning its queues and all child objects.
type Device struct {
	physical  *PhysicalDevice
	hw        *hw.Device
	host      *hw.Host
	driver    hw.DriverProfile
	queues    map[int][]*Queue
	validate  bool
	destroyed bool
	// mapped holds the memory mapped now, in mapping order.
	mapped []*DeviceMemory
}

// CreateDevice creates a logical device and acquires the requested queues.
func (pd *PhysicalDevice) CreateDevice(info DeviceCreateInfo) (*Device, error) {
	drv, err := pd.hw.Driver(hw.APIVulkan)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrIncompatibleDriver, err)
	}
	if len(info.QueueCreateInfos) == 0 {
		return nil, fmt.Errorf("%w: device created with no queues", ErrValidation)
	}
	d := &Device{
		physical: pd,
		hw:       pd.hw,
		host:     pd.instance.host,
		driver:   drv,
		queues:   make(map[int][]*Queue),
		validate: pd.instance.ValidationEnabled(),
	}
	families := pd.QueueFamilyProperties()
	for _, qci := range info.QueueCreateInfos {
		if qci.QueueFamilyIndex < 0 || qci.QueueFamilyIndex >= len(families) {
			return nil, fmt.Errorf("%w: queue family %d out of range", ErrValidation, qci.QueueFamilyIndex)
		}
		if qci.QueueCount <= 0 || qci.QueueCount > families[qci.QueueFamilyIndex].QueueCount {
			return nil, fmt.Errorf("%w: requested %d queues from family %d (max %d)",
				ErrValidation, qci.QueueCount, qci.QueueFamilyIndex, families[qci.QueueFamilyIndex].QueueCount)
		}
		kind := hw.QueueCompute
		if !families[qci.QueueFamilyIndex].Flags.Has(QueueComputeBit) {
			kind = hw.QueueTransfer
		}
		for i := 0; i < qci.QueueCount; i++ {
			hq, err := pd.hw.Queue(kind, i)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrInitializationFailed, err)
			}
			d.queues[qci.QueueFamilyIndex] = append(d.queues[qci.QueueFamilyIndex], &Queue{
				device: d, family: qci.QueueFamilyIndex, index: i, hw: hq,
			})
		}
	}
	d.host.Spend(hw.FixedCost(60 * hostCallOverhead))
	return d, nil
}

// Host returns the simulated host the device's application runs on.
func (d *Device) Host() *hw.Host { return d.host }

// HW returns the underlying simulated GPU.
func (d *Device) HW() *hw.Device { return d.hw }

// Physical returns the parent physical device.
func (d *Device) Physical() *PhysicalDevice { return d.physical }

// Driver returns the Vulkan driver profile in effect.
func (d *Device) Driver() hw.DriverProfile { return d.driver }

// GetQueue returns queue index of the given family, as acquired at device
// creation.
func (d *Device) GetQueue(family, index int) (*Queue, error) {
	d.host.Spend(hostCall)
	qs := d.queues[family]
	if index < 0 || index >= len(qs) {
		return nil, fmt.Errorf("%w: queue %d of family %d was not created", ErrValidation, index, family)
	}
	return qs[index], nil
}

// Destroy destroys the logical device.
func (d *Device) Destroy() {
	d.destroyed = true
	d.host.Spend(hostCall)
}

// WaitIdle blocks until every queue of the device has drained.
func (d *Device) WaitIdle() {
	d.host.Spend(hostCall)
	for _, qs := range d.queues {
		for _, q := range qs {
			d.host.WaitQueue(q.hw)
		}
	}
}

// BufferUsageFlags is a bitmask of buffer usages.
type BufferUsageFlags uint32

// Buffer usage bits.
const (
	BufferUsageStorageBufferBit BufferUsageFlags = 1 << iota
	BufferUsageUniformBufferBit
	BufferUsageTransferSrcBit
	BufferUsageTransferDstBit
)

// BufferCreateInfo configures CreateBuffer.
type BufferCreateInfo struct {
	Size  int64
	Usage BufferUsageFlags
}

// Buffer is an unbacked buffer object; memory must be bound before use.
type Buffer struct {
	device *Device
	size   int64
	usage  BufferUsageFlags
	memory *DeviceMemory
	offset int64
}

// CreateBuffer creates a buffer object (without memory).
func (d *Device) CreateBuffer(info BufferCreateInfo) (*Buffer, error) {
	if info.Size <= 0 {
		return nil, fmt.Errorf("%w: buffer size must be positive", ErrValidation)
	}
	if info.Usage == 0 {
		return nil, fmt.Errorf("%w: buffer usage must not be empty", ErrValidation)
	}
	d.host.Spend(hostCall)
	return &Buffer{device: d, size: info.Size, usage: info.Usage}, nil
}

// Size returns the buffer size in bytes.
func (b *Buffer) Size() int64 { return b.size }

// Bound reports whether memory has been bound to the buffer.
func (b *Buffer) Bound() bool { return b.memory != nil }

// Destroy destroys the buffer object (not its memory).
func (b *Buffer) Destroy() {
	b.device.host.Spend(hostCall)
	b.memory = nil
}

// MemoryRequirements reports the size, alignment and supported memory types of
// a buffer.
type MemoryRequirements struct {
	Size           int64
	Alignment      int64
	MemoryTypeBits uint32
}

// GetBufferMemoryRequirements returns the buffer's memory requirements. All
// memory types support storage buffers on the simulated devices.
func (d *Device) GetBufferMemoryRequirements(b *Buffer) MemoryRequirements {
	d.host.Spend(hostCall)
	size := b.size
	if rem := size % 4; rem != 0 {
		size += 4 - rem
	}
	return MemoryRequirements{Size: size, Alignment: 4, MemoryTypeBits: 0b11}
}

// MemoryAllocateInfo configures AllocateMemory.
type MemoryAllocateInfo struct {
	AllocationSize  int64
	MemoryTypeIndex int
}

// DeviceMemory is a device memory allocation.
type DeviceMemory struct {
	device    *Device
	alloc     *hw.Allocation
	typeIndex int
	size      int64
	// view is the host's view of the mapped words from word viewOff on; nil
	// while the memory is not mapped.
	view    kernels.Words
	viewOff int
}

// AllocateMemory allocates device memory from the heap selected by the memory
// type index (0 = device local, 1 = host visible).
func (d *Device) AllocateMemory(info MemoryAllocateInfo) (*DeviceMemory, error) {
	if info.AllocationSize <= 0 {
		return nil, fmt.Errorf("%w: allocation size must be positive", ErrValidation)
	}
	heap := hw.HeapDeviceLocal
	if info.MemoryTypeIndex == 1 {
		heap = hw.HeapHostVisible
	} else if info.MemoryTypeIndex != 0 {
		return nil, fmt.Errorf("%w: unknown memory type index %d", ErrValidation, info.MemoryTypeIndex)
	}
	d.host.Spend(hw.KnobCost(hw.KnobAlloc))
	alloc, err := d.hw.Memory().Allocate(heap, info.AllocationSize)
	if err != nil {
		if heap == hw.HeapDeviceLocal {
			return nil, fmt.Errorf("%w: %v", ErrOutOfDeviceMemory, err)
		}
		return nil, fmt.Errorf("%w: %v", ErrOutOfHostMemory, err)
	}
	return &DeviceMemory{device: d, alloc: alloc, typeIndex: info.MemoryTypeIndex, size: info.AllocationSize}, nil
}

// Size returns the allocation size in bytes.
func (m *DeviceMemory) Size() int64 { return m.size }

// Free releases the allocation. Mapped memory is unmapped implicitly: the
// host's view is dropped unwritten.
func (m *DeviceMemory) Free() error {
	m.device.host.Spend(hostCall)
	m.forget()
	return m.device.hw.Memory().Free(m.alloc)
}

// BindBufferMemory binds memory to the buffer at the given byte offset.
func (d *Device) BindBufferMemory(b *Buffer, m *DeviceMemory, offset int64) error {
	d.host.Spend(hostCall)
	if b.memory != nil {
		return fmt.Errorf("%w: buffer already has memory bound", ErrValidation)
	}
	if offset%4 != 0 {
		return fmt.Errorf("%w: bind offset %d violates alignment 4", ErrValidation, offset)
	}
	if offset+b.size > m.size {
		return fmt.Errorf("%w: buffer of %d bytes at offset %d exceeds allocation of %d bytes",
			ErrValidation, b.size, offset, m.size)
	}
	b.memory = m
	b.offset = offset
	return nil
}

// Map maps host-visible memory and returns the word view of the mapped range.
// Mapping device-local memory on a discrete GPU fails, as it does in real
// drivers that do not expose host-visible device-local types.
//
// The view is host words holding the range's content. Every memory type the
// host can map is HOST_COHERENT, so Queue.Submit keeps the view coherent:
// it writes every mapped view into its memory before the device runs the
// submission, and reads the memory back into the view after.
func (m *DeviceMemory) Map(offset, size int64) (kernels.Words, error) {
	m.device.host.Spend(hostCall)
	if size <= 0 {
		size = m.size - offset
	}
	if err := m.checkMap(offset, size); err != nil {
		return nil, err
	}
	m.view, m.viewOff = make(kernels.Words, (offset+size+3)/4-offset/4), int(offset/4)
	m.invalidate()
	m.device.mapped = append(m.device.mapped, m)
	return m.view, nil
}

// Unmap unmaps the memory, writing what the host wrote through the view.
func (m *DeviceMemory) Unmap() {
	m.device.host.Spend(hostCall)
	if m.view != nil {
		m.flush()
		m.forget()
	}
}

// flush writes the mapped view into the memory.
func (m *DeviceMemory) flush() { m.alloc.Write(m.viewOff, m.view) }

// invalidate reads the memory back into the mapped view.
func (m *DeviceMemory) invalidate() { m.alloc.Read(m.view, m.viewOff) }

// forget drops the mapped view, if any.
func (m *DeviceMemory) forget() {
	m.view = nil
	m.device.mapped = slices.DeleteFunc(m.device.mapped, func(x *DeviceMemory) bool { return x == m })
}

// Write copies data into the memory at the byte offset: what mapping the
// range, a memcpy into it and unmapping it do, with the same validation and
// host cost, in one call.
func (m *DeviceMemory) Write(offset int64, data kernels.Words) error {
	m.device.host.Spend(hostCall)
	if err := m.checkMap(offset, int64(len(data))*4); err != nil {
		return err
	}
	m.alloc.Write(int(offset/4), data)
	m.device.host.Spend(hostCall)
	return nil
}

// Read copies the memory at the byte offset into data: what mapping the
// range, a memcpy out of it and unmapping it do, in one call, as Write.
func (m *DeviceMemory) Read(offset int64, data kernels.Words) error {
	m.device.host.Spend(hostCall)
	if err := m.checkMap(offset, int64(len(data))*4); err != nil {
		return err
	}
	m.alloc.Read(data, int(offset/4))
	m.device.host.Spend(hostCall)
	return nil
}

// checkMap validates a host mapping of the byte range [offset, offset+size).
func (m *DeviceMemory) checkMap(offset, size int64) error {
	if m.alloc.Freed() {
		return fmt.Errorf("%w: memory was freed", ErrValidation)
	}
	if m.view != nil {
		// VUID-vkMapMemory-memory-00678: memory must not be host mapped.
		return fmt.Errorf("%w: memory is already mapped", ErrMemoryMapFailed)
	}
	unified := m.device.hw.Profile().UnifiedMemory
	if m.typeIndex == 0 && !unified {
		return fmt.Errorf("%w: memory type 0 is not host visible on %s",
			ErrMemoryMapFailed, m.device.hw.Profile().Name)
	}
	if offset < 0 || offset%4 != 0 || offset+size > m.size {
		return fmt.Errorf("%w: invalid map range [%d,%d)", ErrValidation, offset, offset+size)
	}
	return nil
}

// binding binds the buffer's range of its memory to a dispatch.
func (b *Buffer) binding() (hw.Binding, error) {
	start, end, err := b.wordRange()
	if err != nil {
		return hw.Binding{}, err
	}
	return b.memory.alloc.Bind(start, end-start), nil
}

// memoryRange returns the buffer's memory and its range of it in words, for
// the command executor's copies and fills.
func (b *Buffer) memoryRange() (a *hw.Allocation, start, end int, err error) {
	start, end, err = b.wordRange()
	if err != nil {
		return nil, 0, 0, err
	}
	return b.memory.alloc, start, end, nil
}

// wordRange checks that the buffer has live memory bound and returns the
// buffer's range of it in words, clipped to the memory.
func (b *Buffer) wordRange() (start, end int, err error) {
	if b.memory == nil {
		return 0, 0, fmt.Errorf("%w: buffer used without bound memory", ErrValidation)
	}
	if b.memory.alloc.Freed() {
		return 0, 0, fmt.Errorf("%w: buffer's memory was freed", ErrValidation)
	}
	start = int(b.offset / 4)
	end = min(int((b.offset+b.size+3)/4), b.memory.alloc.Len())
	return start, end, nil
}
