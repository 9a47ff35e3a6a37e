package hw_test

import (
	"testing"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/platforms"
)

// TestDispatchParallelismBudget checks the device-level dispatch budget knob
// and that budgeted and unbudgeted executions of the same kernel produce
// identical counters (the budget shapes scheduling, never results).
func TestDispatchParallelismBudget(t *testing.T) {
	prog := &kernels.Program{
		Name:      "test_budget",
		LocalSize: kernels.D1(64),
		Bindings:  1,
		Fn: func(wg *kernels.Workgroup) {
			b := wg.Buffer(0)
			wg.ForEach(func(inv *kernels.Invocation) {
				b.StoreF32(inv, inv.GlobalX(), float32(inv.GlobalX()))
			})
		},
	}

	runWith := func(budget int) kernels.Counters {
		dev, err := platforms.GTX1050Ti().NewDevice()
		if err != nil {
			t.Fatal(err)
		}
		dev.SetDispatchParallelism(budget)
		if got := dev.DispatchParallelism(); got != budget {
			t.Fatalf("DispatchParallelism = %d after Set(%d)", got, budget)
		}
		hw.NewHost(dev, hw.APIVulkan)
		q, err := dev.Queue(hw.QueueCompute, 0)
		if err != nil {
			t.Fatal(err)
		}
		buf := make(kernels.Words, 32*64)
		run, err := q.ExecuteKernel(prog,
			kernels.DispatchConfig{Groups: kernels.D1(32), Buffers: []kernels.Words{buf}}, nil, hw.Cost{})
		if err != nil {
			t.Fatal(err)
		}
		return run.Counters
	}

	unbudgeted := runWith(0)
	budgeted := runWith(1)
	if unbudgeted != budgeted {
		t.Fatalf("counters differ between budget 0 and 1:\n  %+v\n  %+v", unbudgeted, budgeted)
	}

	dev, err := platforms.GTX1050Ti().NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	dev.SetDispatchParallelism(-4)
	if got := dev.DispatchParallelism(); got != 0 {
		t.Fatalf("negative budget not clamped to 0, got %d", got)
	}
}
