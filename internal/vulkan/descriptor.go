package vulkan

import (
	"fmt"

	"vcomputebench/internal/hw"
)

// DescriptorType identifies the kind of resource a descriptor refers to.
type DescriptorType int

// Descriptor types used by compute workloads.
const (
	DescriptorTypeStorageBuffer DescriptorType = iota
	DescriptorTypeUniformBuffer
)

func (t DescriptorType) String() string {
	switch t {
	case DescriptorTypeStorageBuffer:
		return "STORAGE_BUFFER"
	case DescriptorTypeUniformBuffer:
		return "UNIFORM_BUFFER"
	default:
		return fmt.Sprintf("DescriptorType(%d)", int(t))
	}
}

// DescriptorSetLayoutBinding declares one binding of a descriptor set layout.
type DescriptorSetLayoutBinding struct {
	Binding        int
	DescriptorType DescriptorType
	Count          int
}

// DescriptorSetLayoutCreateInfo configures CreateDescriptorSetLayout.
type DescriptorSetLayoutCreateInfo struct {
	Bindings []DescriptorSetLayoutBinding
}

// DescriptorSetLayout describes the shape of a descriptor set.
type DescriptorSetLayout struct {
	device   *Device
	bindings map[int]DescriptorSetLayoutBinding
}

// CreateDescriptorSetLayout creates a descriptor set layout.
func (d *Device) CreateDescriptorSetLayout(info DescriptorSetLayoutCreateInfo) (*DescriptorSetLayout, error) {
	if len(info.Bindings) == 0 {
		return nil, fmt.Errorf("%w: descriptor set layout with no bindings", ErrValidation)
	}
	l := &DescriptorSetLayout{device: d, bindings: make(map[int]DescriptorSetLayoutBinding)}
	for _, b := range info.Bindings {
		if b.Binding < 0 {
			return nil, fmt.Errorf("%w: negative binding %d", ErrValidation, b.Binding)
		}
		if _, dup := l.bindings[b.Binding]; dup {
			return nil, fmt.Errorf("%w: duplicate binding %d in layout", ErrValidation, b.Binding)
		}
		if b.Count <= 0 {
			b.Count = 1
		}
		l.bindings[b.Binding] = b
	}
	d.host.Spend(hostCall)
	return l, nil
}

// Destroy destroys the layout.
func (l *DescriptorSetLayout) Destroy() {
	l.device.host.Spend(hostCall)
}

// DescriptorPoolSize declares capacity for one descriptor type.
type DescriptorPoolSize struct {
	Type  DescriptorType
	Count int
}

// DescriptorPoolCreateInfo configures CreateDescriptorPool.
type DescriptorPoolCreateInfo struct {
	MaxSets   int
	PoolSizes []DescriptorPoolSize
}

// DescriptorPool allocates descriptor sets.
type DescriptorPool struct {
	device    *Device
	maxSets   int
	allocated int
	capacity  map[DescriptorType]int
	used      map[DescriptorType]int
}

// CreateDescriptorPool creates a descriptor pool.
func (d *Device) CreateDescriptorPool(info DescriptorPoolCreateInfo) (*DescriptorPool, error) {
	if info.MaxSets <= 0 {
		return nil, fmt.Errorf("%w: descriptor pool MaxSets must be positive", ErrValidation)
	}
	p := &DescriptorPool{
		device:   d,
		maxSets:  info.MaxSets,
		capacity: make(map[DescriptorType]int),
		used:     make(map[DescriptorType]int),
	}
	for _, ps := range info.PoolSizes {
		p.capacity[ps.Type] += ps.Count
	}
	d.host.Spend(hostCall)
	return p, nil
}

// Destroy destroys the pool and implicitly frees its sets.
func (p *DescriptorPool) Destroy() {
	p.device.host.Spend(hostCall)
	p.allocated = 0
	p.used = make(map[DescriptorType]int)
}

// DescriptorSet holds the buffer bindings for one set.
type DescriptorSet struct {
	device  *Device
	layout  *DescriptorSetLayout
	buffers map[int]*Buffer
}

// AllocateDescriptorSets allocates one descriptor set per provided layout.
func (p *DescriptorPool) AllocateDescriptorSets(layouts ...*DescriptorSetLayout) ([]*DescriptorSet, error) {
	if p.allocated+len(layouts) > p.maxSets {
		return nil, fmt.Errorf("%w: descriptor pool exhausted (%d of %d sets allocated)",
			ErrOutOfHostMemory, p.allocated, p.maxSets)
	}
	need := make(map[DescriptorType]int)
	for _, l := range layouts {
		for _, b := range l.bindings {
			need[b.DescriptorType] += b.Count
		}
	}
	for t, n := range need {
		if p.used[t]+n > p.capacity[t] {
			return nil, fmt.Errorf("%w: descriptor pool has no capacity for %d more %v descriptors",
				ErrOutOfHostMemory, n, t)
		}
	}
	sets := make([]*DescriptorSet, 0, len(layouts))
	for _, l := range layouts {
		sets = append(sets, &DescriptorSet{device: p.device, layout: l, buffers: make(map[int]*Buffer)})
	}
	for t, n := range need {
		p.used[t] += n
	}
	p.allocated += len(layouts)
	p.device.host.Spend(hw.FixedCost(2 * hostCallOverhead))
	return sets, nil
}

// DescriptorBufferInfo identifies a buffer range bound through a descriptor.
type DescriptorBufferInfo struct {
	Buffer *Buffer
	Offset int64
	Range  int64
}

// WriteDescriptorSet describes one descriptor update, mirroring
// VkWriteDescriptorSet.
type WriteDescriptorSet struct {
	DstSet         *DescriptorSet
	DstBinding     int
	DescriptorType DescriptorType
	BufferInfo     DescriptorBufferInfo
}

// UpdateDescriptorSets applies descriptor writes. This is the Vulkan
// equivalent of clSetKernelArg (§IV-A).
func (d *Device) UpdateDescriptorSets(writes ...WriteDescriptorSet) error {
	for _, w := range writes {
		if w.DstSet == nil {
			return fmt.Errorf("%w: descriptor write with nil destination set", ErrValidation)
		}
		lb, ok := w.DstSet.layout.bindings[w.DstBinding]
		if !ok {
			return fmt.Errorf("%w: binding %d not declared in descriptor set layout", ErrValidation, w.DstBinding)
		}
		if lb.DescriptorType != w.DescriptorType {
			return fmt.Errorf("%w: binding %d is %v, write provides %v",
				ErrValidation, w.DstBinding, lb.DescriptorType, w.DescriptorType)
		}
		if w.BufferInfo.Buffer == nil {
			return fmt.Errorf("%w: descriptor write for binding %d has nil buffer", ErrValidation, w.DstBinding)
		}
		if !w.BufferInfo.Buffer.Bound() {
			return fmt.Errorf("%w: descriptor write for binding %d references buffer without memory",
				ErrValidation, w.DstBinding)
		}
		w.DstSet.buffers[w.DstBinding] = w.BufferInfo.Buffer
	}
	d.host.Spend(hw.KnobCostN(hw.KnobDescriptorUpdate, len(writes)))
	return nil
}
