// Package opencl implements an OpenCL-1.2/2.0-style API on top of the
// simulated GPU in internal/hw. It is the second baseline of the paper and the
// baseline of every speedup figure (OpenCL = 1.0 in Figures 2 and 4).
//
// Characteristic costs modelled here: clBuildProgram performs a JIT
// compilation of every kernel in the program (the overhead the paper excludes
// from kernel-time comparisons but cites as a reason total times are worse,
// §V-A2); every clEnqueueNDRangeKernel pays a launch overhead; events expose
// the queued/submit/start/end profiling timestamps.
package opencl

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/sim"
)

// Errors mirroring cl_int error codes.
var (
	ErrDeviceNotFound      = errors.New("opencl: CL_DEVICE_NOT_FOUND")
	ErrInvalidValue        = errors.New("opencl: CL_INVALID_VALUE")
	ErrOutOfResources      = errors.New("opencl: CL_OUT_OF_RESOURCES")
	ErrMemObjectAllocation = errors.New("opencl: CL_MEM_OBJECT_ALLOCATION_FAILURE")
	ErrInvalidKernelName   = errors.New("opencl: CL_INVALID_KERNEL_NAME")
	ErrInvalidKernelArgs   = errors.New("opencl: CL_INVALID_KERNEL_ARGS")
	ErrInvalidWorkGroup    = errors.New("opencl: CL_INVALID_WORK_GROUP_SIZE")
	ErrBuildProgramFailure = errors.New("opencl: CL_BUILD_PROGRAM_FAILURE")
	ErrInvalidArgIndex     = errors.New("opencl: CL_INVALID_ARG_INDEX")
)

const hostCallOverhead = 200 * time.Nanosecond

// Platform is an OpenCL platform (one per vendor runtime installed).
type Platform struct {
	host    *sim.Host
	name    string
	devices []*Device
}

// Name returns the platform name.
func (p *Platform) Name() string { return p.name }

// GetPlatforms enumerates the OpenCL platforms backed by the given simulated
// devices. Devices without an OpenCL driver are not exposed. On the Nexus
// Player the library is not even called libOpenCL.so (paper footnote 3); the
// platform name records the vendor runtime.
func GetPlatforms(host *sim.Host, devices ...*hw.Device) ([]*Platform, error) {
	if host == nil {
		return nil, ErrInvalidValue
	}
	byVendor := map[string]*Platform{}
	var order []string
	for _, d := range devices {
		if d == nil || !d.Profile().Supports(hw.APIOpenCL) {
			continue
		}
		vendor := d.Profile().Vendor
		p, ok := byVendor[vendor]
		if !ok {
			p = &Platform{host: host, name: vendor + " OpenCL Platform"}
			byVendor[vendor] = p
			order = append(order, vendor)
		}
		p.devices = append(p.devices, &Device{host: host, hw: d})
	}
	host.Spend("clGetPlatformIDs", hostCallOverhead)
	if len(order) == 0 {
		return nil, ErrDeviceNotFound
	}
	out := make([]*Platform, 0, len(order))
	for _, v := range order {
		out = append(out, byVendor[v])
	}
	return out, nil
}

// Device is an OpenCL device.
type Device struct {
	host *sim.Host
	hw   *hw.Device
}

// GetDevices returns the platform's devices.
func (p *Platform) GetDevices() ([]*Device, error) {
	p.host.Spend("clGetDeviceIDs", hostCallOverhead)
	if len(p.devices) == 0 {
		return nil, ErrDeviceNotFound
	}
	return append([]*Device(nil), p.devices...), nil
}

// Name returns the device name (CL_DEVICE_NAME).
func (d *Device) Name() string { return d.hw.Profile().Name }

// Version returns the OpenCL version string (CL_DEVICE_VERSION).
func (d *Device) Version() string {
	drv, _ := d.hw.Profile().Driver(hw.APIOpenCL)
	return drv.Version
}

// GlobalMemSize returns CL_DEVICE_GLOBAL_MEM_SIZE.
func (d *Device) GlobalMemSize() int64 { return d.hw.Profile().DeviceMemBytes }

// MaxWorkGroupSize returns CL_DEVICE_MAX_WORK_GROUP_SIZE.
func (d *Device) MaxWorkGroupSize() int { return d.hw.Profile().MaxWorkgroupInvocations }

// HW exposes the underlying simulated device (tests only).
func (d *Device) HW() *hw.Device { return d.hw }

// Context is an OpenCL context over one device.
type Context struct {
	host *sim.Host
	dev  *Device
	drv  hw.DriverProfile
	rec  *hw.Recorder
}

// CreateContext creates a context for the device.
func CreateContext(d *Device) (*Context, error) {
	if d == nil {
		return nil, ErrInvalidValue
	}
	drv, err := d.hw.Driver(hw.APIOpenCL)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDeviceNotFound, err)
	}
	d.host.Spend("clCreateContext", 40*time.Microsecond)
	return &Context{host: d.host, dev: d, drv: drv, rec: d.hw.Recorder()}, nil
}

// Host returns the simulated host.
func (c *Context) Host() *sim.Host { return c.host }

// MemFlags are cl_mem_flags.
type MemFlags uint32

// Memory flags.
const (
	MemReadWrite MemFlags = 1 << iota
	MemReadOnly
	MemWriteOnly
	MemCopyHostPtr
)

// Mem is a cl_mem buffer object.
type Mem struct {
	ctx   *Context
	alloc *hw.Allocation
	size  int64
	flags MemFlags
}

// Size returns the buffer size in bytes.
func (m *Mem) Size() int64 { return m.size }

// Words exposes the backing store.
func (m *Mem) Words() kernels.Words { return m.alloc.Words() }

// CreateBuffer creates a buffer object; like cudaMalloc, one call allocates
// and (optionally, with MemCopyHostPtr) initialises the memory. Host data
// longer than the buffer is CL_INVALID_VALUE.
func (c *Context) CreateBuffer(flags MemFlags, size int64, hostData kernels.Words) (*Mem, error) {
	if size <= 0 {
		return nil, ErrInvalidValue
	}
	if flags&MemCopyHostPtr != 0 && len(hostData) > kernels.WordsForBytes(int(size)) {
		return nil, fmt.Errorf("%w: %d words of host data for a buffer of %d bytes", ErrInvalidValue, len(hostData), size)
	}
	c.rec.NextSpend(hw.KnobCost(hw.KnobAlloc))
	c.host.Spend("clCreateBuffer", c.drv.AllocOverhead)
	alloc, err := c.dev.hw.Memory().Allocate(hw.HeapDeviceLocal, size)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMemObjectAllocation, err)
	}
	m := &Mem{ctx: c, alloc: alloc, size: size, flags: flags}
	if flags&MemCopyHostPtr != 0 && hostData != nil {
		copy(alloc.Words(), hostData)
	}
	return m, nil
}

// Release releases the buffer.
func (m *Mem) Release() error {
	m.ctx.host.Spend("clReleaseMemObject", hostCallOverhead)
	return m.ctx.dev.hw.Memory().Free(m.alloc)
}

// Program is a cl_program created from source.
type Program struct {
	ctx     *Context
	sources []string
	names   []string
	built   bool
}

// CreateProgramWithSource creates a program from OpenCL C sources. Each source
// string must contain one or more `__kernel void <name>` definitions whose
// names match registered kernel programs.
func (c *Context) CreateProgramWithSource(sources ...string) (*Program, error) {
	if len(sources) == 0 {
		return nil, ErrInvalidValue
	}
	c.host.Spend("clCreateProgramWithSource", hostCallOverhead)
	return &Program{ctx: c, sources: sources}, nil
}

// Build JIT-compiles the program, charging the driver's per-kernel compile
// time. The kernel names are extracted from the source text.
func (p *Program) Build(options string) error {
	var names []string
	for _, src := range p.sources {
		names = append(names, extractKernelNames(src)...)
	}
	if len(names) == 0 {
		return fmt.Errorf("%w: no __kernel definitions found", ErrBuildProgramFailure)
	}
	for _, n := range names {
		if _, err := kernels.Lookup(n); err != nil {
			return fmt.Errorf("%w: %v", ErrBuildProgramFailure, err)
		}
	}
	p.names = names
	p.built = true
	p.ctx.rec.NextSpend(hw.KnobCostN(hw.KnobJITCompile, len(names)))
	p.ctx.host.Spend("clBuildProgram", time.Duration(len(names))*p.ctx.drv.JITCompileTime)
	return nil
}

// KernelNames returns the kernels available after a successful build.
func (p *Program) KernelNames() []string { return append([]string(nil), p.names...) }

// extractKernelNames finds `__kernel void <name>` definitions in OpenCL C
// source text.
func extractKernelNames(src string) []string {
	var names []string
	rest := src
	for {
		i := strings.Index(rest, "__kernel")
		if i < 0 {
			break
		}
		rest = rest[i+len("__kernel"):]
		fields := strings.Fields(rest)
		if len(fields) >= 2 && fields[0] == "void" {
			name := fields[1]
			if j := strings.IndexAny(name, "( \t\n"); j >= 0 {
				name = name[:j]
			}
			if name != "" {
				names = append(names, name)
			}
		}
	}
	return names
}

// Kernel is a cl_kernel with bound arguments.
type Kernel struct {
	prog    *Program
	kp      *kernels.Program
	buffers []*Mem
	values  kernels.Words
	valSet  []bool
	bufSet  []bool
}

// CreateKernel creates a kernel object for one entry point of a built program.
func (p *Program) CreateKernel(name string) (*Kernel, error) {
	p.ctx.host.Spend("clCreateKernel", hostCallOverhead)
	if !p.built {
		return nil, fmt.Errorf("%w: program is not built", ErrInvalidValue)
	}
	found := false
	for _, n := range p.names {
		if n == name {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("%w: %q", ErrInvalidKernelName, name)
	}
	kp, err := kernels.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidKernelName, err)
	}
	return &Kernel{
		prog:    p,
		kp:      kp,
		buffers: make([]*Mem, kp.Bindings),
		bufSet:  make([]bool, kp.Bindings),
		values:  make(kernels.Words, kp.PushConstantWords),
		valSet:  make([]bool, kp.PushConstantWords),
	}, nil
}

// Program exposes the resolved kernel program (tests only).
func (k *Kernel) Program() *kernels.Program { return k.kp }

// SetArgBuffer sets argument index to a buffer. Buffer arguments occupy
// indices [0, Bindings).
func (k *Kernel) SetArgBuffer(index int, m *Mem) error {
	k.prog.ctx.rec.NextSpend(hw.KnobCost(hw.KnobDescriptorUpdate))
	k.prog.ctx.host.Spend("clSetKernelArg", k.prog.ctx.drv.DescriptorUpdateOverhead)
	if index < 0 || index >= len(k.buffers) {
		return fmt.Errorf("%w: buffer argument index %d out of range [0,%d)", ErrInvalidArgIndex, index, len(k.buffers))
	}
	if m == nil {
		return ErrInvalidValue
	}
	k.buffers[index] = m
	k.bufSet[index] = true
	return nil
}

// SetArgU32 sets a 32-bit scalar argument. Scalar arguments occupy indices
// [Bindings, Bindings+PushConstantWords).
func (k *Kernel) SetArgU32(index int, v uint32) error {
	k.prog.ctx.rec.NextSpend(hw.KnobCost(hw.KnobPushConstant))
	k.prog.ctx.host.Spend("clSetKernelArg", k.prog.ctx.drv.PushConstantOverhead)
	vi := index - k.kp.Bindings
	if vi < 0 || vi >= len(k.values) {
		return fmt.Errorf("%w: scalar argument index %d out of range [%d,%d)",
			ErrInvalidArgIndex, index, k.kp.Bindings, k.kp.Bindings+len(k.values))
	}
	k.values[vi] = v
	k.valSet[vi] = true
	return nil
}

// SetArgI32 sets a signed 32-bit scalar argument.
func (k *Kernel) SetArgI32(index int, v int32) error { return k.SetArgU32(index, uint32(v)) }

// SetArgF32 sets a float scalar argument.
func (k *Kernel) SetArgF32(index int, v float32) error {
	return k.SetArgU32(index, f32bits(v))
}

// CommandQueueProperties configures CreateCommandQueue.
type CommandQueueProperties struct {
	Profiling bool
}

// CommandQueue is an in-order cl_command_queue.
type CommandQueue struct {
	ctx       *Context
	hw        *hw.Queue
	profiling bool
}

// CreateCommandQueue creates a command queue on the context's device.
func (c *Context) CreateCommandQueue(props CommandQueueProperties) (*CommandQueue, error) {
	hq, err := c.dev.hw.Queue(hw.QueueCompute, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrOutOfResources, err)
	}
	c.host.Spend("clCreateCommandQueue", hostCallOverhead)
	return &CommandQueue{ctx: c, hw: hq, profiling: props.Profiling}, nil
}

// Event carries profiling information about an enqueued command.
type Event struct {
	Queued time.Duration
	Submit time.Duration
	Start  time.Duration
	End    time.Duration

	rec *hw.Recorder
	ref int32
}

// Duration returns the device execution time (start to end). Under trace
// recording each call is captured as a span reading, so a kernel time summed
// from profiling events can be rebound during replay.
func (e *Event) Duration() time.Duration {
	v := e.End - e.Start
	if e.rec != nil && e.ref >= 0 {
		e.rec.ReadSpan(e.ref, v)
	}
	return v
}

// EnqueueWriteBuffer copies host words into a buffer. When blocking, the host
// waits for the transfer to complete. Data longer than the buffer is
// CL_INVALID_VALUE.
func (q *CommandQueue) EnqueueWriteBuffer(m *Mem, blocking bool, data kernels.Words) (*Event, error) {
	if m == nil {
		return nil, ErrInvalidValue
	}
	if len(data) > len(m.alloc.Words()) {
		return nil, fmt.Errorf("%w: write of %d words into a buffer of %d words", ErrInvalidValue, len(data), len(m.alloc.Words()))
	}
	q.ctx.host.Spend("clEnqueueWriteBuffer", hostCallOverhead)
	queued := q.ctx.host.Now()
	copy(m.alloc.Words(), data)
	start, end := q.hw.ExecuteTransfer(queued, int64(len(data))*4)
	ref := q.ctx.rec.QueueMark(q.hw.Slot())
	if blocking {
		q.ctx.rec.Wait(ref)
		q.ctx.host.WaitUntil(end)
	}
	return &Event{Queued: queued, Submit: queued, Start: start, End: end, rec: q.ctx.rec, ref: ref}, nil
}

// EnqueueReadBuffer copies a buffer into host words. Host words longer than
// the buffer are CL_INVALID_VALUE.
func (q *CommandQueue) EnqueueReadBuffer(m *Mem, blocking bool, data kernels.Words) (*Event, error) {
	if m == nil {
		return nil, ErrInvalidValue
	}
	if len(data) > len(m.alloc.Words()) {
		return nil, fmt.Errorf("%w: read of %d words from a buffer of %d words", ErrInvalidValue, len(data), len(m.alloc.Words()))
	}
	q.ctx.host.Spend("clEnqueueReadBuffer", hostCallOverhead)
	queued := q.ctx.host.Now()
	copy(data, m.alloc.Words())
	start, end := q.hw.ExecuteTransfer(queued, int64(len(data))*4)
	ref := q.ctx.rec.QueueMark(q.hw.Slot())
	if blocking {
		q.ctx.rec.Wait(ref)
		q.ctx.host.WaitUntil(end)
	}
	return &Event{Queued: queued, Submit: queued, Start: start, End: end, rec: q.ctx.rec, ref: ref}, nil
}

// EnqueueNDRangeKernel enqueues one kernel execution over the global NDRange.
// The local size must match the kernel's registered workgroup size and the
// global size must be a multiple of it, as in the Rodinia host code. Every
// call pays the driver's kernel launch overhead; this is the per-iteration
// cost of the multi-kernel synchronisation method (§IV-C).
func (q *CommandQueue) EnqueueNDRangeKernel(k *Kernel, global, local kernels.Dim3) (*Event, error) {
	if k == nil {
		return nil, ErrInvalidValue
	}
	if local == (kernels.Dim3{}) {
		local = k.kp.LocalSize
	}
	if local != k.kp.LocalSize {
		return nil, fmt.Errorf("%w: local size %v does not match kernel %q reqd size %v",
			ErrInvalidWorkGroup, local, k.kp.Name, k.kp.LocalSize)
	}
	if !global.Valid() || global.X%local.X != 0 || global.Y%local.Y != 0 || global.Z%local.Z != 0 {
		return nil, fmt.Errorf("%w: global size %v is not a multiple of local size %v",
			ErrInvalidWorkGroup, global, local)
	}
	for i, set := range k.bufSet {
		if !set {
			return nil, fmt.Errorf("%w: buffer argument %d of %q was never set", ErrInvalidKernelArgs, i, k.kp.Name)
		}
	}
	for i, set := range k.valSet {
		if !set {
			return nil, fmt.Errorf("%w: scalar argument %d of %q was never set",
				ErrInvalidKernelArgs, i+k.kp.Bindings, k.kp.Name)
		}
	}
	buffers := make([]kernels.Words, len(k.buffers))
	for i, m := range k.buffers {
		buffers[i] = m.alloc.Words()
	}
	q.ctx.rec.NextSpend(hw.KnobCost(hw.KnobKernelLaunch))
	q.ctx.host.Spend("clEnqueueNDRangeKernel", q.ctx.drv.KernelLaunchOverhead)
	queued := q.ctx.host.Now()
	groups := kernels.Dim3{X: global.X / local.X, Y: global.Y / local.Y, Z: global.Z / local.Z}
	cfg := kernels.DispatchConfig{Groups: groups, Buffers: buffers, Push: k.values}
	run, err := q.hw.ExecuteKernel(queued, hw.APIOpenCL, k.kp, cfg, hw.KnobCost(hw.KnobPipelineBind))
	if err != nil {
		// %w on the cause as well: fault classification must survive the
		// API-level error translation.
		return nil, fmt.Errorf("%w: %w", ErrOutOfResources, err)
	}
	ref := q.ctx.rec.QueueMark(q.hw.Slot())
	return &Event{Queued: queued, Submit: queued, Start: run.Start, End: run.End, rec: q.ctx.rec, ref: ref}, nil
}

// Finish blocks the host until the queue drains (clFinish). Beyond waiting for
// the device it pays the driver's synchronisation latency, which the
// multi-kernel method incurs once per iteration.
func (q *CommandQueue) Finish() {
	q.ctx.host.Spend("clFinish", hostCallOverhead)
	q.ctx.rec.WaitQueue(q.hw.Slot())
	q.ctx.host.WaitUntil(q.hw.AvailableAt())
	q.ctx.rec.NextSpend(hw.KnobCost(hw.KnobSync))
	q.ctx.host.Spend("sync-latency", q.ctx.drv.SyncLatency)
}

// Flush is a no-op for the simulated in-order queue (clFlush).
func (q *CommandQueue) Flush() {
	q.ctx.host.Spend("clFlush", hostCallOverhead)
}

func f32bits(v float32) uint32 {
	return kernels.F32ToWords([]float32{v})[0]
}
