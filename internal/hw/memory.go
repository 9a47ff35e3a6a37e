package hw

import (
	"errors"
	"fmt"
	"sync"

	"vcomputebench/internal/kernels"
)

// HeapKind identifies a memory heap of the simulated device.
type HeapKind int

// Heap kinds. Device-local memory is the GPU's own memory (or the GPU
// partition of a unified memory on mobile parts); host-visible memory can be
// mapped by the CPU.
const (
	HeapDeviceLocal HeapKind = iota
	HeapHostVisible
)

func (h HeapKind) String() string {
	switch h {
	case HeapDeviceLocal:
		return "device-local"
	case HeapHostVisible:
		return "host-visible"
	default:
		return fmt.Sprintf("heap(%d)", int(h))
	}
}

// Common allocation errors.
var (
	ErrOutOfDeviceMemory = errors.New("hw: out of device memory")
	ErrOutOfHostMemory   = errors.New("hw: out of host-visible memory")
	ErrInvalidSize       = errors.New("hw: allocation size must be positive")
	ErrAlreadyFreed      = errors.New("hw: allocation already freed")
)

// Allocation is a block of simulated device memory. Its backing store is a
// word buffer the kernels read and write directly.
type Allocation struct {
	heap  HeapKind
	bytes int64
	words kernels.Words
	freed bool
	owner *MemorySystem
	// ver and state name the words' content for the device's DispatchMemo
	// (memo.go).
	ver   version
	state contentState
	// mapped: the host may access the words at any time (Map).
	mapped bool
}

// Heap returns the heap the allocation lives in.
func (a *Allocation) Heap() HeapKind { return a.heap }

// SizeBytes returns the allocation size in bytes.
func (a *Allocation) SizeBytes() int64 { return a.bytes }

// Words exposes the backing store to the host, which may read and write it
// until the next dispatch binds the allocation. Content a DispatchMemo hit
// left awaiting is copied in first.
func (a *Allocation) Words() kernels.Words {
	if a.state >= contentDerived {
		a.owner.memo.hostAccess(a)
	}
	a.state = contentUnknown
	return a.words
}

// Map exposes the backing store to the host until Unmap, dispatches
// included, as a mapping of host-visible memory does: a DispatchMemo hashes
// mapped words at every bind and executes every dispatch that binds them.
func (a *Allocation) Map() kernels.Words {
	a.mapped = true
	return a.Words()
}

// Mapped reports whether the allocation is mapped.
func (a *Allocation) Mapped() bool { return a.mapped }

// Unmap ends the mapping. The host may have written the words.
func (a *Allocation) Unmap() {
	a.mapped = false
	a.state = contentUnknown
}

// Len returns the allocation's length in words.
func (a *Allocation) Len() int { return len(a.words) }

// Binding is a storage buffer bound to a dispatch: words [offset,
// offset+len) of an allocation.
type Binding struct {
	alloc       *Allocation
	offset, len int
}

// Bind binds the words [offset, offset+n) of the allocation to a dispatch.
// Unlike Words, binding is not host access: the dispatch alone touches the
// words, so the allocation keeps its content version.
func (a *Allocation) Bind(offset, n int) Binding { return Binding{alloc: a, offset: offset, len: n} }

// words returns the bound words.
func (b Binding) words() kernels.Words { return b.alloc.words[b.offset : b.offset+b.len] }

// Freed reports whether the allocation has been released.
func (a *Allocation) Freed() bool { return a.freed }

// MemorySystem tracks heap budgets and allocations for one device.
type MemorySystem struct {
	// memo is the device's DispatchMemo; nil outside a device.
	memo      *DispatchMemo
	mu        sync.Mutex
	capacity  map[HeapKind]int64
	used      map[HeapKind]int64
	allocs    int
	peakUsed  map[HeapKind]int64
	allocFail int
}

// NewMemorySystem builds a memory system with the given heap capacities in
// bytes.
func NewMemorySystem(deviceLocal, hostVisible int64) *MemorySystem {
	return &MemorySystem{
		capacity: map[HeapKind]int64{
			HeapDeviceLocal: deviceLocal,
			HeapHostVisible: hostVisible,
		},
		used:     map[HeapKind]int64{},
		peakUsed: map[HeapKind]int64{},
	}
}

// Capacity returns the capacity of the heap in bytes.
func (m *MemorySystem) Capacity(h HeapKind) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.capacity[h]
}

// Used returns the bytes currently allocated from the heap.
func (m *MemorySystem) Used(h HeapKind) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used[h]
}

// PeakUsed returns the high-water mark of the heap.
func (m *MemorySystem) PeakUsed(h HeapKind) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peakUsed[h]
}

// LiveAllocations returns the number of outstanding allocations.
func (m *MemorySystem) LiveAllocations() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.allocs
}

// FailedAllocations returns how many allocations were rejected for lack of
// space. The mobile experiments use this to reproduce the paper's "cfd could
// not fit" observation.
func (m *MemorySystem) FailedAllocations() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.allocFail
}

// Allocate reserves size bytes from the heap and returns the allocation. The
// backing store is rounded up to whole 32-bit words.
func (m *MemorySystem) Allocate(h HeapKind, size int64) (*Allocation, error) {
	if size <= 0 {
		return nil, ErrInvalidSize
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	capacity, ok := m.capacity[h]
	if !ok {
		return nil, fmt.Errorf("hw: unknown heap %v", h)
	}
	if m.used[h]+size > capacity {
		m.allocFail++
		if h == HeapDeviceLocal {
			return nil, fmt.Errorf("%w: requested %d bytes, %d of %d in use",
				ErrOutOfDeviceMemory, size, m.used[h], capacity)
		}
		return nil, fmt.Errorf("%w: requested %d bytes, %d of %d in use",
			ErrOutOfHostMemory, size, m.used[h], capacity)
	}
	m.used[h] += size
	if m.used[h] > m.peakUsed[h] {
		m.peakUsed[h] = m.used[h]
	}
	m.allocs++
	return &Allocation{
		heap:  h,
		bytes: size,
		words: kernels.NewWords(kernels.WordsForBytes(int(size))),
		owner: m,
		state: contentZero,
	}, nil
}

// Free releases the allocation back to its heap.
func (m *MemorySystem) Free(a *Allocation) error {
	if a == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if a.freed {
		return ErrAlreadyFreed
	}
	a.freed = true
	m.used[a.heap] -= a.bytes
	m.allocs--
	a.words = nil
	return nil
}
