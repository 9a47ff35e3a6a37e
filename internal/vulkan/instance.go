package vulkan

import (
	"fmt"
	"time"

	"vcomputebench/internal/hw"
)

// hostCallOverhead is the nominal host cost of a cheap API call (object
// creation, queries). Expensive calls use the driver profile's figures.
const hostCallOverhead = 200 * time.Nanosecond

// hostCall is the cost of one cheap API call.
var hostCall = hw.FixedCost(hostCallOverhead)

// LayerValidation is the name of the standard validation layer. Enabling it
// adds host-side checking cost, modelling the "tooling layers ... present
// during development and removed at runtime" of §III-A.
const LayerValidation = "VK_LAYER_KHRONOS_validation"

// InstanceCreateInfo configures CreateInstance.
type InstanceCreateInfo struct {
	ApplicationName string
	// EnabledLayers lists tooling layers to load (e.g. LayerValidation).
	EnabledLayers []string
}

// Instance is the loader state: it knows about the installed drivers
// (physical devices) and the enabled layers.
type Instance struct {
	host            *hw.Host
	info            InstanceCreateInfo
	physicalDevices []*PhysicalDevice
	destroyed       bool
}

// CreateInstance initialises the loader over the given simulated devices.
// Devices whose platform does not ship a Vulkan driver are not enumerated,
// matching the loader's behaviour of only exposing ICDs that are installed.
// The host must record a Vulkan run (hw.NewHost(dev, hw.APIVulkan)).
func CreateInstance(host *hw.Host, info InstanceCreateInfo, devices ...*hw.Device) (*Instance, error) {
	if host == nil || host.API() != hw.APIVulkan {
		return nil, fmt.Errorf("%w: the host does not record a Vulkan run", ErrInitializationFailed)
	}
	inst := &Instance{host: host, info: info}
	for _, d := range devices {
		if d == nil {
			continue
		}
		if !d.Profile().Supports(hw.APIVulkan) {
			continue
		}
		inst.physicalDevices = append(inst.physicalDevices, &PhysicalDevice{instance: inst, hw: d})
	}
	// The loader initialises enabled layers and the ICDs.
	host.Spend(hw.FixedCost(25*time.Microsecond + time.Duration(len(info.EnabledLayers))*5*time.Microsecond))
	if len(devices) > 0 && len(inst.physicalDevices) == 0 {
		return nil, ErrIncompatibleDriver
	}
	return inst, nil
}

// ValidationEnabled reports whether the validation layer was requested.
func (i *Instance) ValidationEnabled() bool {
	for _, l := range i.info.EnabledLayers {
		if l == LayerValidation {
			return true
		}
	}
	return false
}

// EnumeratePhysicalDevices returns the physical devices visible to the
// instance.
func (i *Instance) EnumeratePhysicalDevices() ([]*PhysicalDevice, error) {
	if i.destroyed {
		return nil, fmt.Errorf("%w: instance destroyed", ErrValidation)
	}
	i.host.Spend(hostCall)
	if len(i.physicalDevices) == 0 {
		return nil, ErrIncompatibleDriver
	}
	out := make([]*PhysicalDevice, len(i.physicalDevices))
	copy(out, i.physicalDevices)
	return out, nil
}

// Destroy releases the instance.
func (i *Instance) Destroy() {
	i.destroyed = true
	i.host.Spend(hostCall)
}

// PhysicalDeviceProperties reports device identity and limits, the subset of
// VkPhysicalDeviceProperties/Limits the benchmarks need.
type PhysicalDeviceProperties struct {
	DeviceName        string
	VendorName        string
	DeviceType        hw.Class
	APIVersion        string
	MaxPushConstants  int
	MaxWorkgroupSize  int
	MaxSharedMemory   int
	DeviceLocalBytes  int64
	HostVisibleBytes  int64
	TimestampValidity bool
}

// QueueFlags is a bitmask of queue family capabilities.
type QueueFlags uint32

// Queue capability bits.
const (
	QueueGraphicsBit QueueFlags = 1 << iota
	QueueComputeBit
	QueueTransferBit
	QueueSparseBit
)

// Has reports whether all bits in want are present.
func (f QueueFlags) Has(want QueueFlags) bool { return f&want == want }

// QueueFamilyProperties describes one queue family of a physical device.
type QueueFamilyProperties struct {
	Flags      QueueFlags
	QueueCount int
}

// MemoryPropertyFlags is a bitmask of memory type properties.
type MemoryPropertyFlags uint32

// Memory property bits.
const (
	MemoryPropertyDeviceLocalBit MemoryPropertyFlags = 1 << iota
	MemoryPropertyHostVisibleBit
	MemoryPropertyHostCoherentBit
)

// MemoryType describes one entry of the physical device memory types array.
type MemoryType struct {
	PropertyFlags MemoryPropertyFlags
	HeapIndex     int
}

// MemoryHeap describes one memory heap.
type MemoryHeap struct {
	SizeBytes int64
}

// PhysicalDeviceMemoryProperties lists the memory types and heaps.
type PhysicalDeviceMemoryProperties struct {
	MemoryTypes []MemoryType
	MemoryHeaps []MemoryHeap
}

// FindMemoryTypeIndex returns the index of the first memory type whose
// supported-type bit is set in typeBits and which has all requested property
// flags, mirroring the findMemType helper in the paper's Listing 1.
func (p PhysicalDeviceMemoryProperties) FindMemoryTypeIndex(typeBits uint32, props MemoryPropertyFlags) (int, error) {
	for i, mt := range p.MemoryTypes {
		if typeBits&(1<<uint(i)) == 0 {
			continue
		}
		if mt.PropertyFlags&props == props {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: no memory type with properties %#x", ErrFeatureNotPresent, props)
}

// PhysicalDevice represents one GPU visible to the instance.
type PhysicalDevice struct {
	instance *Instance
	hw       *hw.Device
}

// Properties returns the device properties.
func (pd *PhysicalDevice) Properties() PhysicalDeviceProperties {
	pd.instance.host.Spend(hostCall)
	prof := pd.hw.Profile()
	drv, _ := prof.Driver(hw.APIVulkan)
	return PhysicalDeviceProperties{
		DeviceName:        prof.Name,
		VendorName:        prof.Vendor,
		DeviceType:        prof.Class,
		APIVersion:        drv.Version,
		MaxPushConstants:  drv.MaxPushConstantBytes,
		MaxWorkgroupSize:  prof.MaxWorkgroupInvocations,
		MaxSharedMemory:   prof.SharedMemPerCUBytes,
		DeviceLocalBytes:  prof.DeviceMemBytes,
		HostVisibleBytes:  prof.HostVisibleMemBytes,
		TimestampValidity: true,
	}
}

// QueueFamilyProperties returns the queue families: family 0 is
// compute+transfer capable, family 1 is a dedicated transfer family, matching
// the queue model of §III-B.
func (pd *PhysicalDevice) QueueFamilyProperties() []QueueFamilyProperties {
	pd.instance.host.Spend(hostCall)
	return []QueueFamilyProperties{
		{Flags: QueueComputeBit | QueueTransferBit, QueueCount: pd.hw.QueueCount(hw.QueueCompute)},
		{Flags: QueueTransferBit, QueueCount: pd.hw.QueueCount(hw.QueueTransfer)},
	}
}

// MemoryProperties returns the memory types and heaps of the device. Type 0 is
// DEVICE_LOCAL, type 1 is HOST_VISIBLE|HOST_COHERENT; on unified-memory
// devices type 0 additionally reports HOST_VISIBLE.
func (pd *PhysicalDevice) MemoryProperties() PhysicalDeviceMemoryProperties {
	pd.instance.host.Spend(hostCall)
	prof := pd.hw.Profile()
	deviceLocalProps := MemoryPropertyDeviceLocalBit
	if prof.UnifiedMemory {
		deviceLocalProps |= MemoryPropertyHostVisibleBit | MemoryPropertyHostCoherentBit
	}
	return PhysicalDeviceMemoryProperties{
		MemoryTypes: []MemoryType{
			{PropertyFlags: deviceLocalProps, HeapIndex: 0},
			{PropertyFlags: MemoryPropertyHostVisibleBit | MemoryPropertyHostCoherentBit, HeapIndex: 1},
		},
		MemoryHeaps: []MemoryHeap{
			{SizeBytes: prof.DeviceMemBytes},
			{SizeBytes: prof.HostVisibleMemBytes},
		},
	}
}

// HW exposes the underlying simulated device (used by tests and the report
// layer, not by benchmark host code).
func (pd *PhysicalDevice) HW() *hw.Device { return pd.hw }
