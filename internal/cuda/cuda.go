// Package cuda implements a CUDA-runtime-style API on top of the simulated
// GPU in internal/hw. It is the first baseline the paper compares Vulkan
// against: device memory management is a single call (cudaMalloc), kernels are
// launched one call at a time, and every launch pays the driver's kernel
// launch overhead — the cost that dominates iterative Rodinia workloads and
// that Vulkan's single-command-buffer recording avoids (§IV-C, §V-A2).
//
// Kernels are "compiled offline": a Module resolves entry points directly from
// the kernels registry, mirroring how cubin/PTX images ship with CUDA
// binaries, so no JIT cost is charged at run time.
package cuda

import (
	"errors"
	"fmt"
	"time"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/sim"
)

// Errors mirroring cudaError_t values.
var (
	ErrNoDevice              = errors.New("cuda: no CUDA-capable device is detected")
	ErrMemoryAllocation      = errors.New("cuda: out of memory")
	ErrInvalidValue          = errors.New("cuda: invalid value")
	ErrInvalidDevicePointer  = errors.New("cuda: invalid device pointer")
	ErrInvalidConfiguration  = errors.New("cuda: invalid configuration argument")
	ErrLaunchFailure         = errors.New("cuda: unspecified launch failure")
	ErrInvalidDeviceFunction = errors.New("cuda: invalid device function")
)

const hostCallOverhead = 150 * time.Nanosecond

// Context is the per-device runtime state (the implicit primary context of the
// CUDA runtime API).
type Context struct {
	host    *sim.Host
	dev     *hw.Device
	drv     hw.DriverProfile
	rec     *hw.Recorder
	def     *Stream
	streams int
}

// NewContext initialises the CUDA runtime on the device (cudaSetDevice plus
// lazy context creation). It fails if the device has no CUDA driver, as is the
// case for every non-NVIDIA platform in the paper.
func NewContext(host *sim.Host, dev *hw.Device) (*Context, error) {
	if host == nil || dev == nil {
		return nil, ErrInvalidValue
	}
	drv, err := dev.Driver(hw.APICUDA)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrNoDevice, dev.Profile().Name)
	}
	ctx := &Context{host: host, dev: dev, drv: drv, rec: dev.Recorder()}
	hq, err := dev.Queue(hw.QueueCompute, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoDevice, err)
	}
	ctx.def = &Stream{ctx: ctx, hw: hq, id: 0}
	host.Spend("cudaSetDevice", 30*time.Microsecond)
	return ctx, nil
}

// Host returns the simulated host.
func (c *Context) Host() *sim.Host { return c.host }

// Device returns the underlying simulated device.
func (c *Context) Device() *hw.Device { return c.dev }

// DeviceProperties is the subset of cudaDeviceProp used by the benchmarks.
type DeviceProperties struct {
	Name                 string
	MultiProcessorCount  int
	ClockRateKHz         int
	WarpSize             int
	TotalGlobalMem       int64
	SharedMemPerBlock    int
	MaxThreadsPerBlock   int
	MemoryBandwidthGBps  float64
	RuntimeVersionString string
}

// GetDeviceProperties returns the device properties.
func (c *Context) GetDeviceProperties() DeviceProperties {
	c.host.Spend("cudaGetDeviceProperties", hostCallOverhead)
	p := c.dev.Profile()
	return DeviceProperties{
		Name:                 p.Name,
		MultiProcessorCount:  p.ComputeUnits,
		ClockRateKHz:         p.CoreClockMHz * 1000,
		WarpSize:             p.WarpSize,
		TotalGlobalMem:       p.DeviceMemBytes,
		SharedMemPerBlock:    p.SharedMemPerCUBytes,
		MaxThreadsPerBlock:   p.MaxWorkgroupInvocations,
		MemoryBandwidthGBps:  p.PeakBandwidthGBps,
		RuntimeVersionString: c.drv.Version,
	}
}

// DevicePtr is device memory allocated with Malloc (the device pointer of
// cudaMalloc).
type DevicePtr struct {
	ctx   *Context
	alloc *hw.Allocation
	size  int64
}

// Size returns the allocation size in bytes.
func (p *DevicePtr) Size() int64 { return p.size }

// Words exposes the backing words; the kernels access device memory through
// this at launch time.
func (p *DevicePtr) Words() kernels.Words { return p.alloc.Words() }

// Malloc allocates device memory. In contrast to the ~40 lines of Vulkan code
// needed for the same result (§VI-A), this is a single call.
func (c *Context) Malloc(size int64) (*DevicePtr, error) {
	if size <= 0 {
		return nil, ErrInvalidValue
	}
	c.rec.NextSpend(hw.KnobCost(hw.KnobAlloc))
	c.host.Spend("cudaMalloc", c.drv.AllocOverhead)
	alloc, err := c.dev.Memory().Allocate(hw.HeapDeviceLocal, size)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMemoryAllocation, err)
	}
	return &DevicePtr{ctx: c, alloc: alloc, size: size}, nil
}

// Free releases device memory.
func (c *Context) Free(p *DevicePtr) error {
	if p == nil {
		return ErrInvalidDevicePointer
	}
	c.host.Spend("cudaFree", hostCallOverhead)
	return c.dev.Memory().Free(p.alloc)
}

// MemcpyHtoD copies host words to device memory (synchronous, like the default
// cudaMemcpy).
func (c *Context) MemcpyHtoD(dst *DevicePtr, src kernels.Words) error {
	if dst == nil {
		return ErrInvalidDevicePointer
	}
	if len(src) > len(dst.alloc.Words()) {
		return fmt.Errorf("%w: copy of %d words into allocation of %d words", ErrInvalidValue, len(src), len(dst.alloc.Words()))
	}
	c.host.Spend("cudaMemcpy(HtoD)", hostCallOverhead)
	copy(dst.alloc.Words(), src)
	_, end := c.def.hw.ExecuteTransfer(c.host.Now(), int64(len(src))*4)
	c.rec.WaitQueue(c.def.hw.Slot())
	c.host.WaitUntil(end)
	return nil
}

// MemcpyDtoH copies device memory to host words (synchronous).
func (c *Context) MemcpyDtoH(dst kernels.Words, src *DevicePtr) error {
	if src == nil {
		return ErrInvalidDevicePointer
	}
	if len(dst) > len(src.alloc.Words()) {
		return fmt.Errorf("%w: copy of %d words from allocation of %d words", ErrInvalidValue, len(dst), len(src.alloc.Words()))
	}
	c.host.Spend("cudaMemcpy(DtoH)", hostCallOverhead)
	copy(dst, src.alloc.Words())
	_, end := c.def.hw.ExecuteTransfer(c.host.Now(), int64(len(dst))*4)
	c.rec.WaitQueue(c.def.hw.Slot())
	c.host.WaitUntil(end)
	return nil
}

// Module is a collection of compiled kernels (the equivalent of a cubin linked
// into the executable).
type Module struct {
	ctx *Context
}

// LoadModule returns the module of kernels linked into the application.
func (c *Context) LoadModule() *Module {
	c.host.Spend("cuModuleLoad", 40*time.Microsecond)
	return &Module{ctx: c}
}

// Kernel is a device function handle.
type Kernel struct {
	ctx  *Context
	prog *kernels.Program
}

// GetKernel resolves a __global__ function by name.
func (m *Module) GetKernel(name string) (*Kernel, error) {
	m.ctx.host.Spend("cuModuleGetFunction", hostCallOverhead)
	prog, err := kernels.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidDeviceFunction, err)
	}
	return &Kernel{ctx: m.ctx, prog: prog}, nil
}

// Program exposes the resolved kernel program (used by tests).
func (k *Kernel) Program() *kernels.Program { return k.prog }

// Args carries the kernel arguments of one launch: device pointers in binding
// order followed by 32-bit scalar values.
type Args struct {
	Buffers []*DevicePtr
	Values  kernels.Words
}

// Stream is an in-order execution stream.
type Stream struct {
	ctx *Context
	hw  *hw.Queue
	id  int
}

// DefaultStream returns the legacy default stream.
func (c *Context) DefaultStream() *Stream { return c.def }

// StreamCreate creates an additional stream. Streams beyond the number of
// hardware compute queues share the last queue.
func (c *Context) StreamCreate() (*Stream, error) {
	c.host.Spend("cudaStreamCreate", hostCallOverhead)
	c.streams++
	idx := c.streams
	if idx >= c.dev.QueueCount(hw.QueueCompute) {
		idx = c.dev.QueueCount(hw.QueueCompute) - 1
	}
	hq, err := c.dev.Queue(hw.QueueCompute, idx)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidValue, err)
	}
	return &Stream{ctx: c, hw: hq, id: c.streams}, nil
}

// Launch launches the kernel with the given grid of thread blocks
// (kernel<<<grid, block>>> where block is fixed by the kernel's declaration).
// Control returns to the host as soon as the launch is enqueued; every call
// pays the driver's kernel launch overhead.
func (s *Stream) Launch(k *Kernel, grid kernels.Dim3, block kernels.Dim3, args Args) error {
	if k == nil {
		return ErrInvalidDeviceFunction
	}
	if !grid.Valid() {
		return fmt.Errorf("%w: grid %v", ErrInvalidConfiguration, grid)
	}
	if block != (kernels.Dim3{}) && block != k.prog.LocalSize {
		return fmt.Errorf("%w: block %v does not match kernel %q block %v",
			ErrInvalidConfiguration, block, k.prog.Name, k.prog.LocalSize)
	}
	if len(args.Buffers) < k.prog.Bindings {
		return fmt.Errorf("%w: kernel %q expects %d buffer arguments, got %d",
			ErrInvalidValue, k.prog.Name, k.prog.Bindings, len(args.Buffers))
	}
	buffers := make([]kernels.Words, len(args.Buffers))
	for i, b := range args.Buffers {
		if b == nil {
			return fmt.Errorf("%w: buffer argument %d is nil", ErrInvalidDevicePointer, i)
		}
		buffers[i] = b.alloc.Words()
	}
	s.ctx.rec.NextSpend(hw.KnobCost(hw.KnobKernelLaunch))
	s.ctx.host.Spend("cudaLaunchKernel", s.ctx.drv.KernelLaunchOverhead)
	cfg := kernels.DispatchConfig{Groups: grid, Buffers: buffers, Push: args.Values}
	_, err := s.hw.ExecuteKernel(s.ctx.host.Now(), hw.APICUDA, k.prog, cfg, hw.KnobCost(hw.KnobPipelineBind))
	if err != nil {
		// %w on the cause as well: fault classification must survive the
		// API-level error translation.
		return fmt.Errorf("%w: %w", ErrLaunchFailure, err)
	}
	return nil
}

// Synchronize blocks the host until the stream drains (cudaStreamSynchronize).
// Beyond waiting for the device it pays the driver's synchronisation latency
// (interrupt delivery, thread wake-up), which the multi-kernel method incurs
// once per iteration.
func (s *Stream) Synchronize() {
	s.ctx.host.Spend("cudaStreamSynchronize", hostCallOverhead)
	s.ctx.rec.WaitQueue(s.hw.Slot())
	s.ctx.host.WaitUntil(s.hw.AvailableAt())
	s.ctx.rec.NextSpend(hw.KnobCost(hw.KnobSync))
	s.ctx.host.Spend("sync-latency", s.ctx.drv.SyncLatency)
}

// DeviceSynchronize blocks until all streams drain.
func (c *Context) DeviceSynchronize() {
	c.host.Spend("cudaDeviceSynchronize", hostCallOverhead)
	for i := 0; i < c.dev.QueueCount(hw.QueueCompute); i++ {
		q, err := c.dev.Queue(hw.QueueCompute, i)
		if err == nil {
			c.rec.WaitQueue(q.Slot())
			c.host.WaitUntil(q.AvailableAt())
		}
	}
	c.rec.NextSpend(hw.KnobCost(hw.KnobSync))
	c.host.Spend("sync-latency", c.drv.SyncLatency)
}

// Event marks a point in a stream, usable for device-side timing
// (cudaEventElapsedTime).
type Event struct {
	ctx  *Context
	when time.Duration
	mark int32
	set  bool
}

// EventCreate creates an event.
func (c *Context) EventCreate() *Event {
	c.host.Spend("cudaEventCreate", hostCallOverhead)
	return &Event{ctx: c}
}

// Record records the event at the current end of the stream.
func (e *Event) Record(s *Stream) {
	e.ctx.host.Spend("cudaEventRecord", hostCallOverhead)
	e.when = s.hw.AvailableAt()
	e.mark = e.ctx.rec.QueueMark(s.hw.Slot())
	e.set = true
}

// Elapsed returns the device time between two recorded events.
func (e *Event) Elapsed(since *Event) (time.Duration, error) {
	if !e.set || !since.set {
		return 0, fmt.Errorf("%w: elapsed time of unrecorded events", ErrInvalidValue)
	}
	v := e.when - since.when
	e.ctx.rec.ReadEndDiff(since.mark, e.mark, v)
	return v, nil
}
