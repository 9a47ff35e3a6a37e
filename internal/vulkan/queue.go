package vulkan

import (
	"fmt"
	"time"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
)

// Fence is a host-device synchronisation primitive signalled when a submission
// completes: the submission's last work in the run's trace.
type Fence struct {
	device  *Device
	mark    int32
	pending bool
}

// CreateFence creates an unsignalled fence.
func (d *Device) CreateFence() *Fence {
	d.host.Spend(hostCall)
	return &Fence{device: d, mark: -1}
}

// Destroy destroys the fence.
func (f *Fence) Destroy() { f.device.host.Spend(hostCall) }

// Wait blocks the host until the fence is signalled.
func (f *Fence) Wait() error {
	f.device.host.Spend(hostCall)
	if !f.pending {
		return fmt.Errorf("%w: waiting on a fence that was never submitted", ErrValidation)
	}
	f.device.host.Wait(f.mark)
	f.device.host.Spend(hw.KnobCost(hw.KnobSync))
	f.pending = false
	return nil
}

// Reset returns the fence to the unsignalled state.
func (f *Fence) Reset() {
	f.device.host.Spend(hostCall)
	f.pending = false
}

// SubmitInfo describes one batch of command buffers.
type SubmitInfo struct {
	CommandBuffers []*CommandBuffer
}

// Queue is a logical device queue the application submits work to.
type Queue struct {
	device *Device
	family int
	index  int
	hw     *hw.Queue
}

// Family returns the queue family index.
func (q *Queue) Family() int { return q.family }

// Index returns the queue index within the family.
func (q *Queue) Index() int { return q.index }

// SubmitStats captures per-submission bookkeeping used by tests and the
// report layer.
type SubmitStats struct {
	Dispatches     int
	Barriers       int
	PipelineBinds  int
	CopyBytes      int64
	CompletionTime time.Duration
	KernelTime     hw.Measurement
}

// Submit submits batches of command buffers for execution. Control returns to
// the application as soon as the submission is enqueued (§III-B); the fence,
// if provided, signals when the last command completes.
func (q *Queue) Submit(batches []SubmitInfo, fence *Fence) (SubmitStats, error) {
	d := q.device
	d.host.Spend(hw.KnobCost(hw.KnobSubmit))

	var stats SubmitStats
	var dispatchRefs []int32
	for _, batch := range batches {
		for _, cb := range batch.CommandBuffers {
			if cb == nil {
				return stats, fmt.Errorf("%w: nil command buffer in submission", ErrValidation)
			}
			if cb.state != CommandBufferExecutable {
				return stats, fmt.Errorf("%w: submitted command buffer is not in the executable state", ErrValidation)
			}
			s, refs, err := q.execute(cb)
			if err != nil {
				return stats, err
			}
			stats.Dispatches += s.Dispatches
			stats.Barriers += s.Barriers
			stats.PipelineBinds += s.PipelineBinds
			stats.CopyBytes += s.CopyBytes
			dispatchRefs = append(dispatchRefs, refs...)
		}
	}
	// The submission's summed dispatch execution time is an observable
	// benchmarks report (the bandwidth figures); it is read from the trace so
	// replay can recompute it.
	if len(dispatchRefs) > 0 {
		stats.KernelTime = d.host.ReadSpanSum(dispatchRefs)
	}
	stats.CompletionTime = q.hw.AvailableAt()
	if fence != nil {
		fence.mark = q.hw.Last()
		fence.pending = true
	}
	return stats, nil
}

// execute replays a command buffer's commands on the hardware queue. It
// returns, alongside the statistics, the trace refs of the dispatches it
// scheduled. The device-side overhead between dispatches is accumulated as a
// symbolic hw.Cost — not a valued duration — so a recorded trace can revalue
// it under a different driver profile.
func (q *Queue) execute(cb *CommandBuffer) (SubmitStats, []int32, error) {
	drv := q.device.driver
	var stats SubmitStats
	var refs []int32

	var boundPipeline *Pipeline
	var boundSets []*DescriptorSet
	var pushWords kernels.Words
	var pending hw.Cost

	for i, c := range cb.commands {
		switch c.kind {
		case cmdBindPipeline:
			boundPipeline = c.pipeline
			pending = pending.Plus(hw.KnobCost(hw.KnobPipelineBind))
			stats.PipelineBinds++
			if c.pipeline.layout != nil && len(pushWords) < c.pipeline.layout.pushBytes/4 {
				grown := make(kernels.Words, c.pipeline.layout.pushBytes/4)
				copy(grown, pushWords)
				pushWords = grown
			}
		case cmdBindDescriptorSets:
			boundSets = c.sets
			pending = pending.Plus(hw.KnobCost(hw.KnobDescriptorUpdate))
		case cmdPushConstants:
			if drv.PushConstantsAsBuffers {
				// Driver quirk (§V-B1): the constants are demoted to a buffer
				// binding, costing a descriptor update per command instead.
				pending = pending.Plus(hw.KnobCost(hw.KnobDescriptorUpdate))
			} else {
				pending = pending.Plus(hw.KnobCost(hw.KnobPushConstant))
			}
			need := c.pushOffset + len(c.pushWords)
			if len(pushWords) < need {
				grown := make(kernels.Words, need)
				copy(grown, pushWords)
				pushWords = grown
			}
			copy(pushWords[c.pushOffset:], c.pushWords)
		case cmdPipelineBarrier:
			pending = pending.Plus(hw.KnobCost(hw.KnobBarrier))
			stats.Barriers++
		case cmdDispatch:
			if boundPipeline == nil {
				return stats, refs, fmt.Errorf("%w: CmdDispatch at command %d without a bound compute pipeline", ErrValidation, i)
			}
			prog := boundPipeline.program
			binds, err := gatherBindings(prog, boundSets)
			if err != nil {
				return stats, refs, fmt.Errorf("command %d (%s): %w", i, prog.Name, err)
			}
			cfg := kernels.DispatchConfig{Groups: c.groups, Push: pushWords}
			run, err := q.hw.ExecuteKernel(prog, cfg, binds, pending)
			if err != nil {
				// Wrap the cause with %w too: fault classification (transient
				// vs permanent) must survive the API-level error translation.
				return stats, refs, fmt.Errorf("%w: %w", ErrDeviceLost, err)
			}
			pending = hw.Cost{}
			stats.Dispatches++
			refs = append(refs, run.Event)
		case cmdCopyBuffer:
			t := c.transfer
			src, srcStart, _, err := t.src.memoryRange()
			if err != nil {
				return stats, refs, err
			}
			dst, dstStart, _, err := t.dst.memoryRange()
			if err != nil {
				return stats, refs, err
			}
			for _, r := range t.regions {
				hw.Copy(dst, dstStart+int(r.DstOffset/4), src, srcStart+int(r.SrcOffset/4), int((r.Size+3)/4))
			}
			q.hw.Occupy(pending)
			pending = hw.Cost{}
			q.hw.ExecuteTransfer(t.bytes)
			stats.CopyBytes += t.bytes
		case cmdFillBuffer:
			t := c.transfer
			dst, start, end, err := t.dst.memoryRange()
			if err != nil {
				return stats, refs, err
			}
			dst.Fill(start, end-start, t.value)
			q.hw.ExecuteTransfer(t.bytes)
		}
	}
	// Gate on the symbolic cost, not its valuation: the trailing occupation
	// must appear in the trace whenever overhead was accumulated, so replay
	// under a profile with different knob values schedules exactly what a
	// fresh run would.
	if !pending.IsZero() {
		q.hw.Occupy(pending)
	}
	return stats, refs, nil
}

// gatherBindings resolves the kernel's bindings from the bound descriptor
// sets (set 0 only, as used by all VComputeBench kernels).
func gatherBindings(prog *kernels.Program, sets []*DescriptorSet) ([]hw.Binding, error) {
	if len(sets) == 0 {
		return nil, fmt.Errorf("%w: dispatch without bound descriptor sets", ErrValidation)
	}
	set := sets[0]
	binds := make([]hw.Binding, prog.Bindings)
	for b := 0; b < prog.Bindings; b++ {
		buf, ok := set.buffers[b]
		if !ok {
			return nil, fmt.Errorf("%w: kernel %q binding %d has no descriptor written", ErrValidation, prog.Name, b)
		}
		bind, err := buf.binding()
		if err != nil {
			return nil, err
		}
		binds[b] = bind
	}
	return binds, nil
}

// WaitIdle blocks the host until the queue drains.
func (q *Queue) WaitIdle() {
	q.device.host.Spend(hostCall)
	q.device.host.WaitQueue(q.hw)
}
