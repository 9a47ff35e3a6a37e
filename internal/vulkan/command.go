package vulkan

import (
	"fmt"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
)

// CommandPoolCreateInfo configures CreateCommandPool.
type CommandPoolCreateInfo struct {
	QueueFamilyIndex int
}

// CommandPool allocates command buffers for one queue family.
type CommandPool struct {
	device *Device
	family int
}

// CreateCommandPool creates a command pool.
func (d *Device) CreateCommandPool(info CommandPoolCreateInfo) (*CommandPool, error) {
	families := d.physical.QueueFamilyProperties()
	if info.QueueFamilyIndex < 0 || info.QueueFamilyIndex >= len(families) {
		return nil, fmt.Errorf("%w: queue family %d out of range", ErrValidation, info.QueueFamilyIndex)
	}
	d.host.Spend(hostCall)
	return &CommandPool{device: d, family: info.QueueFamilyIndex}, nil
}

// Destroy destroys the pool.
func (p *CommandPool) Destroy() { p.device.host.Spend(hostCall) }

// CommandBufferState tracks the command buffer lifecycle.
type CommandBufferState int

// Command buffer lifecycle states.
const (
	CommandBufferInitial CommandBufferState = iota
	CommandBufferRecording
	CommandBufferExecutable
)

// recorded command kinds.
type cmdKind int

const (
	cmdBindPipeline cmdKind = iota
	cmdBindDescriptorSets
	cmdPushConstants
	cmdDispatch
	cmdPipelineBarrier
	cmdCopyBuffer
	cmdFillBuffer
)

// command is one recorded command.
type command struct {
	kind cmdKind

	pipeline *Pipeline
	sets     []*DescriptorSet

	pushOffset int
	pushWords  kernels.Words

	groups kernels.Dim3

	// transfer is a copy's or a fill's; behind a pointer, it keeps the
	// dispatch commands small.
	transfer *transferCommand
}

// transferCommand is a recorded CmdCopyBuffer (src, dst, regions and their
// byte total) or CmdFillBuffer (dst and value).
type transferCommand struct {
	src, dst *Buffer
	regions  []BufferCopy
	bytes    int64
	value    uint32
}

// CommandBufferAllocateInfo configures AllocateCommandBuffers.
type CommandBufferAllocateInfo struct {
	CommandPool *CommandPool
	Count       int
}

// CommandBuffer records commands for later submission. Once recorded it can be
// cached and submitted as many times as required (§III-B), which is the
// mechanism behind the paper's single-command-buffer optimisation for
// iterative algorithms.
type CommandBuffer struct {
	device   *Device
	pool     *CommandPool
	state    CommandBufferState
	commands []command
}

// AllocateCommandBuffers allocates count command buffers from the pool.
func (d *Device) AllocateCommandBuffers(info CommandBufferAllocateInfo) ([]*CommandBuffer, error) {
	if info.CommandPool == nil {
		return nil, fmt.Errorf("%w: nil command pool", ErrValidation)
	}
	if info.Count <= 0 {
		return nil, fmt.Errorf("%w: command buffer count must be positive", ErrValidation)
	}
	d.host.Spend(hostCall)
	out := make([]*CommandBuffer, info.Count)
	for i := range out {
		out[i] = &CommandBuffer{device: d, pool: info.CommandPool}
	}
	return out, nil
}

// Begin puts the command buffer into the recording state.
func (cb *CommandBuffer) Begin() error {
	if cb.state == CommandBufferRecording {
		return fmt.Errorf("%w: vkBeginCommandBuffer on a command buffer already recording", ErrValidation)
	}
	cb.state = CommandBufferRecording
	cb.commands = cb.commands[:0]
	cb.device.host.Spend(hostCall)
	return nil
}

// End moves the command buffer to the executable state.
func (cb *CommandBuffer) End() error {
	if cb.state != CommandBufferRecording {
		return fmt.Errorf("%w: vkEndCommandBuffer on a command buffer that is not recording", ErrValidation)
	}
	cb.state = CommandBufferExecutable
	cb.device.host.Spend(hostCall)
	return nil
}

// Reset returns the command buffer to the initial state, discarding recorded
// commands.
func (cb *CommandBuffer) Reset() {
	cb.state = CommandBufferInitial
	cb.commands = nil
	cb.device.host.Spend(hostCall)
}

// State returns the lifecycle state.
func (cb *CommandBuffer) State() CommandBufferState { return cb.state }

// CommandCount returns the number of recorded commands.
func (cb *CommandBuffer) CommandCount() int { return len(cb.commands) }

func (cb *CommandBuffer) record(c command) error {
	if cb.state != CommandBufferRecording {
		return fmt.Errorf("%w: command recorded outside Begin/End", ErrValidation)
	}
	cb.commands = append(cb.commands, c)
	cb.device.host.Spend(hw.KnobCost(hw.KnobCommandRecord))
	return nil
}

// PipelineBindPoint selects the pipeline type bound by CmdBindPipeline.
type PipelineBindPoint int

// Bind points.
const (
	PipelineBindPointCompute PipelineBindPoint = iota
	PipelineBindPointGraphics
)

// CmdBindPipeline binds a compute pipeline.
func (cb *CommandBuffer) CmdBindPipeline(bindPoint PipelineBindPoint, p *Pipeline) error {
	if bindPoint != PipelineBindPointCompute {
		return fmt.Errorf("%w: only the compute bind point is supported", ErrValidation)
	}
	if p == nil {
		return fmt.Errorf("%w: CmdBindPipeline with nil pipeline", ErrValidation)
	}
	return cb.record(command{kind: cmdBindPipeline, pipeline: p})
}

// CmdBindDescriptorSets binds descriptor sets for subsequent dispatches.
func (cb *CommandBuffer) CmdBindDescriptorSets(bindPoint PipelineBindPoint, layout *PipelineLayout, sets ...*DescriptorSet) error {
	if bindPoint != PipelineBindPointCompute {
		return fmt.Errorf("%w: only the compute bind point is supported", ErrValidation)
	}
	if layout == nil {
		return fmt.Errorf("%w: CmdBindDescriptorSets with nil layout", ErrValidation)
	}
	if len(sets) == 0 {
		return fmt.Errorf("%w: CmdBindDescriptorSets with no sets", ErrValidation)
	}
	return cb.record(command{kind: cmdBindDescriptorSets, sets: sets})
}

// CmdPushConstants updates push constants for subsequent dispatches. The
// offset is in bytes and must be word aligned.
func (cb *CommandBuffer) CmdPushConstants(layout *PipelineLayout, offsetBytes int, words kernels.Words) error {
	if layout == nil {
		return fmt.Errorf("%w: CmdPushConstants with nil layout", ErrValidation)
	}
	if offsetBytes%4 != 0 {
		return fmt.Errorf("%w: push constant offset %d is not word aligned", ErrValidation, offsetBytes)
	}
	if offsetBytes+len(words)*4 > layout.pushBytes {
		return fmt.Errorf("%w: push constant update of %d bytes at offset %d exceeds layout range of %d bytes",
			ErrValidation, len(words)*4, offsetBytes, layout.pushBytes)
	}
	w := make(kernels.Words, len(words))
	copy(w, words)
	return cb.record(command{kind: cmdPushConstants, pushOffset: offsetBytes / 4, pushWords: w})
}

// CmdDispatch records a compute dispatch of the given workgroup counts.
func (cb *CommandBuffer) CmdDispatch(x, y, z int) error {
	g := kernels.Dim3{X: x, Y: y, Z: z}
	if !g.Valid() {
		return fmt.Errorf("%w: CmdDispatch with invalid group counts %v", ErrValidation, g)
	}
	return cb.record(command{kind: cmdDispatch, groups: g})
}

// PipelineStageFlags identifies synchronisation scopes for barriers.
type PipelineStageFlags uint32

// Pipeline stages.
const (
	PipelineStageComputeShaderBit PipelineStageFlags = 1 << iota
	PipelineStageTransferBit
	PipelineStageHostBit
)

// AccessFlags identifies memory access types for barriers.
type AccessFlags uint32

// Access types.
const (
	AccessShaderReadBit AccessFlags = 1 << iota
	AccessShaderWriteBit
	AccessTransferReadBit
	AccessTransferWriteBit
	AccessHostReadBit
	AccessHostWriteBit
)

// MemoryBarrier is a global memory barrier.
type MemoryBarrier struct {
	SrcAccessMask AccessFlags
	DstAccessMask AccessFlags
}

// CmdPipelineBarrier records an execution + memory barrier. This is the
// synchronisation primitive the paper uses between the iterations recorded in
// a single command buffer (§IV-C): commands recorded before the barrier
// complete before commands recorded after it.
func (cb *CommandBuffer) CmdPipelineBarrier(src, dst PipelineStageFlags, barriers ...MemoryBarrier) error {
	if src == 0 || dst == 0 {
		return fmt.Errorf("%w: pipeline barrier with empty stage mask", ErrValidation)
	}
	return cb.record(command{kind: cmdPipelineBarrier})
}

// BufferCopy is one region of a CmdCopyBuffer.
type BufferCopy struct {
	SrcOffset int64
	DstOffset int64
	Size      int64
}

// CmdCopyBuffer records a copy of each region from one buffer to another
// (used for staging uploads to device-local memory and readbacks); no region
// means the whole of the smaller buffer. Memory is addressed in 32-bit words,
// so region offsets must be multiples of 4; a size that is not copies its
// last partial word whole.
func (cb *CommandBuffer) CmdCopyBuffer(src, dst *Buffer, regions ...BufferCopy) error {
	if src == nil || dst == nil {
		return fmt.Errorf("%w: CmdCopyBuffer with nil buffer", ErrValidation)
	}
	if len(regions) == 0 {
		regions = []BufferCopy{{Size: minInt64(src.size, dst.size)}}
	}
	var total int64
	for _, r := range regions {
		if r.Size <= 0 || r.SrcOffset < 0 || r.DstOffset < 0 || r.SrcOffset+r.Size > src.size || r.DstOffset+r.Size > dst.size {
			return fmt.Errorf("%w: copy region out of bounds", ErrValidation)
		}
		if r.SrcOffset%4 != 0 || r.DstOffset%4 != 0 {
			return fmt.Errorf("%w: copy region offsets %d and %d are not multiples of 4", ErrValidation, r.SrcOffset, r.DstOffset)
		}
		total += r.Size
	}
	return cb.record(command{kind: cmdCopyBuffer, transfer: &transferCommand{
		src: src, dst: dst, regions: append([]BufferCopy(nil), regions...), bytes: total}})
}

// CmdFillBuffer records a fill of the whole buffer with a 32-bit pattern.
func (cb *CommandBuffer) CmdFillBuffer(dst *Buffer, value uint32) error {
	if dst == nil {
		return fmt.Errorf("%w: CmdFillBuffer with nil buffer", ErrValidation)
	}
	return cb.record(command{kind: cmdFillBuffer, transfer: &transferCommand{dst: dst, bytes: dst.size, value: value}})
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
