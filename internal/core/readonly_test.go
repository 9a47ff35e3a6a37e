package core

import (
	"errors"
	"testing"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/platforms"
)

// readOnlyViolator declares binding 0 read-only and stores to it anyway.
var readOnlyViolator = &kernels.Program{
	Name:      "core_readonly_violator",
	LocalSize: kernels.D1(64),
	Bindings:  2,
	ReadOnly:  1 << 0,
	Fn: func(wg *kernels.Workgroup) {
		in, out := wg.Buffer(0), wg.Buffer(1)
		wg.ForEach(func(inv *kernels.Invocation) {
			i := inv.GlobalX()
			v := in.LoadU32(inv, i)
			out.StoreU32(inv, i, v)
			in.StoreU32(inv, i, v+1)
		})
	},
}

// TestReadOnlyStoreFailsCell: a kernel that stores to a binding it declares
// read-only fails its cell with hw.ErrReadOnlyStore, permanently, and the
// cell is never stored.
func TestReadOnlyStoreFailsCell(t *testing.T) {
	const n = 256
	b := registered{&Descriptor{
		Name: "readonly-violation", Family: FamilyExtension, Application: "read-only test", Dwarf: "-", Domain: "-",
		APIs:      []hw.API{hw.APIVulkan},
		Workloads: func(hw.Class) []Workload { return []Workload{{Label: "256"}} },
		Run: func(ctx *RunContext) (*Result, error) {
			q, err := ctx.Device.Queue(hw.QueueCompute, 0)
			if err != nil {
				return nil, err
			}
			var bufs [2]*hw.Allocation
			for i := range bufs {
				if bufs[i], err = ctx.Device.Memory().Allocate(hw.HeapDeviceLocal, n*4); err != nil {
					return nil, err
				}
			}
			bufs[0].Write(0, ctx.RandomF32(1, n, 0, 1))
			cfg := kernels.DispatchConfig{Groups: kernels.D1(n / 64)}
			if _, err := q.ExecuteKernel(readOnlyViolator, cfg, []hw.Binding{bufs[0].Bind(0, n), bufs[1].Bind(0, n)}, hw.Cost{}); err != nil {
				return nil, err
			}
			return ctx.Result(ctx.Host.ReadNow()), nil
		},
	}}
	p := platforms.GTX1050Ti()
	w := b.Workloads(p.Profile.Class)[0]
	cache := NewSnapshotCache(0)
	r := &Runner{Repetitions: 1, Seed: 1, Retries: 2, Cache: cache}
	_, err := r.Run(p, b, hw.APIVulkan, w)
	if !errors.Is(err, hw.ErrReadOnlyStore) {
		t.Fatalf("error %v, want hw.ErrReadOnlyStore", err)
	}
	var cellErr *CellError
	if !errors.As(err, &cellErr) || cellErr.Class != FailurePermanent || cellErr.Attempts != 1 {
		t.Fatalf("error %v: want a permanent CellError after one attempt", err)
	}
	if _, ok := cache.Get(r.CellKey(p, b, hw.APIVulkan, w)); ok {
		t.Fatal("the failed cell was stored")
	}
}
