package kernels_test

import (
	"math"
	"runtime"
	"testing"

	"vcomputebench/internal/kernels"
)

// TestAtomicsConcurrentWorkgroups hammers one element of a shared buffer from
// every invocation of a many-workgroup dispatch running on the maximum worker
// count. Run under -race (as CI does) it proves the dispatch engine's atomic
// read-modify-write path is properly serialised; the final values prove no
// update was lost.
func TestAtomicsConcurrentWorkgroups(t *testing.T) {
	const groups = 64
	const local = 64
	total := groups * local

	buf := make(kernels.Words, 3)
	buf[2] = math.Float32bits(float32(total + 1)) // AtomicMinF32 start value

	prog := &kernels.Program{
		Name:      "test_atomics",
		LocalSize: kernels.D1(local),
		Bindings:  1,
		Exact:     true, // every invocation must run or the expected totals drift
		Fn: func(wg *kernels.Workgroup) {
			b := wg.Buffer(0)
			wg.ForEach(func(inv *kernels.Invocation) {
				gid := inv.GlobalX()
				b.AtomicAddI32(inv, 0, 1)
				b.AtomicOrU32(inv, 1, 1<<uint(gid%32))
				b.AtomicMinF32(inv, 2, float32(gid+1))
			})
		},
	}
	ctr, err := kernels.Execute(prog, kernels.DispatchConfig{
		Groups:      kernels.D1(groups),
		Buffers:     []kernels.Words{buf},
		Parallelism: runtime.NumCPU(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := int32(buf[0]); got != int32(total) {
		t.Errorf("AtomicAddI32 lost updates: counter = %d, want %d", got, total)
	}
	if buf[1] != 0xFFFFFFFF {
		t.Errorf("AtomicOrU32 = %#x, want all 32 bits set", buf[1])
	}
	if got := math.Float32frombits(buf[2]); got != 1 {
		t.Errorf("AtomicMinF32 = %v, want 1", got)
	}
	// Each atomic counts as one load and one store.
	if ctr.GlobalLoads != float64(3*total) || ctr.GlobalStores != float64(3*total) {
		t.Errorf("atomic access counting: loads=%v stores=%v, want %v each",
			ctr.GlobalLoads, ctr.GlobalStores, 3*total)
	}
}

// TestStoreU32SharedConcurrentWorkgroups: every invocation of a
// many-workgroup dispatch on several workers stores one value to one element,
// as bfs raises its stop flag. Run under -race (as CI does) it proves such
// stores do not race; the element keeps the value, and each store counts as
// one plain store.
func TestStoreU32SharedConcurrentWorkgroups(t *testing.T) {
	// Enough groups that the workers overlap: a worker that finishes first
	// hands its workgroup to the next through a pool, and under the race
	// detector that hand-off orders the two workers' stores.
	const groups = 1024
	const local = 64
	buf := make(kernels.Words, 1)
	prog := &kernels.Program{
		Name:      "test_shared_store",
		LocalSize: kernels.D1(local),
		Bindings:  1,
		Exact:     true,
		Fn: func(wg *kernels.Workgroup) {
			b := wg.Buffer(0)
			wg.ForEach(func(inv *kernels.Invocation) {
				b.StoreU32Shared(inv, 0, 7)
			})
		},
	}
	ctr, err := kernels.Execute(prog, kernels.DispatchConfig{
		Groups:      kernels.D1(groups),
		Buffers:     []kernels.Words{buf},
		Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != 7 {
		t.Errorf("shared store left %d, want 7", buf[0])
	}
	if ctr.GlobalLoads != 0 || ctr.GlobalStores != groups*local {
		t.Errorf("shared store counting: loads=%v stores=%v, want 0 and %d", ctr.GlobalLoads, ctr.GlobalStores, groups*local)
	}
}
