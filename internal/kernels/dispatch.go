package kernels

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
)

// DefaultMaxExactInvocations bounds the number of invocations executed
// functionally for a single dispatch before workgroup sampling kicks in.
// Programs that set Exact are never sampled.
const DefaultMaxExactInvocations = 1 << 19

// maxSampledWorkgroups bounds how many executed workgroups feed the
// coalescing recorder per dispatch. Sampled workgroups are selected evenly
// from the executed-group sequence as a function of the grid alone, so the
// sample set — and therefore every counter — is identical for any
// Parallelism.
const maxSampledWorkgroups = 8

// DispatchConfig describes one dispatch of a program: its grid dimensions,
// bound resources and the architectural parameters needed by the coalescing
// model.
type DispatchConfig struct {
	// Groups is the number of workgroups in X/Y/Z (vkCmdDispatch arguments).
	Groups Dim3
	// Buffers are the storage buffers bound to the kernel, indexed by binding
	// number. Entries may be nil if the kernel does not touch that binding.
	Buffers []Words
	// Push holds the push-constant (or parameter buffer) words.
	Push Words
	// WarpSize is the SIMD width used to group invocations for the coalescing
	// model (32 for NVIDIA/Adreno-style, 64 for GCN wavefronts).
	WarpSize int
	// CacheLineBytes is the memory transaction granularity.
	CacheLineBytes int
	// MaxExactInvocations overrides DefaultMaxExactInvocations when positive.
	MaxExactInvocations int
	// Parallelism limits the number of worker goroutines (0 = GOMAXPROCS).
	// The resulting Counters are bit-identical for any value: workgroup
	// sampling is a deterministic function of the grid, and every counter is
	// an exactly-representable integer, so the merge order cannot change the
	// totals.
	Parallelism int
}

// Dispatch is the execution state of one kernel dispatch.
type Dispatch struct {
	Program *Program
	cfg     DispatchConfig
	local   Dim3

	counters Counters
	atomicMu sync.Mutex
}

// MaxBindings is the most buffers one dispatch may bind, so that a bit of a
// uint64 stands for each binding.
const MaxBindings = 64

// Execute functionally runs the program over the configured grid and returns
// the accumulated counters, and the bindings the executed workgroups stored
// to and loaded from: bit i for binding i. Buffers are mutated in place.
func Execute(p *Program, cfg DispatchConfig) (c *Counters, stored, loaded uint64, err error) {
	if err := p.Validate(); err != nil {
		return nil, 0, 0, err
	}
	if !cfg.Groups.Valid() {
		return nil, 0, 0, fmt.Errorf("kernels: dispatch of %q has invalid group count %v", p.Name, cfg.Groups)
	}
	if len(cfg.Buffers) < p.Bindings {
		return nil, 0, 0, fmt.Errorf("kernels: dispatch of %q binds %d buffers, kernel declares %d",
			p.Name, len(cfg.Buffers), p.Bindings)
	}
	if len(cfg.Buffers) > MaxBindings {
		return nil, 0, 0, fmt.Errorf("kernels: dispatch of %q binds %d buffers, more than %d",
			p.Name, len(cfg.Buffers), MaxBindings)
	}
	if len(cfg.Push) < p.PushConstantWords {
		return nil, 0, 0, fmt.Errorf("kernels: dispatch of %q provides %d push words, kernel declares %d",
			p.Name, len(cfg.Push), p.PushConstantWords)
	}
	if cfg.WarpSize <= 0 {
		cfg.WarpSize = 32
	}
	if cfg.CacheLineBytes <= 0 {
		cfg.CacheLineBytes = 64
	}
	d := &Dispatch{Program: p, cfg: cfg, local: p.LocalSize}

	totalGroups := cfg.Groups.Count()
	invPerGroup := d.local.Count()
	totalInv := totalGroups * invPerGroup

	maxExact := cfg.MaxExactInvocations
	if maxExact <= 0 {
		maxExact = DefaultMaxExactInvocations
	}
	stride := 1
	if !p.Exact && totalInv > maxExact {
		stride = (totalInv + maxExact - 1) / maxExact
		if stride < 1 {
			stride = 1
		}
	}
	executedGroups := (totalGroups + stride - 1) / stride
	scale := float64(totalGroups) / float64(executedGroups)

	// Coalescing samples are recorded on every sampleEvery-th executed
	// workgroup. The step depends only on the executed-group count, never on
	// the worker partition, so the sample — and the Counters — are identical
	// for any Parallelism.
	sampleEvery := (executedGroups + maxSampledWorkgroups - 1) / maxSampledWorkgroups
	if sampleEvery < 1 {
		sampleEvery = 1
	}

	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > executedGroups {
		workers = executedGroups
	}
	if workers < 1 {
		workers = 1
	}

	// Each worker accumulates into its own Counters; the partials are merged
	// in worker order after the pool drains. All counter values are integers
	// (exactly representable in float64), so the split points cannot change
	// the merged totals.
	partials := make([]workerResult, workers)
	var wgWait sync.WaitGroup
	groupsPerWorker := (executedGroups + workers - 1) / workers
	for w := 0; w < workers; w++ {
		start := w * groupsPerWorker
		end := start + groupsPerWorker
		if end > executedGroups {
			end = executedGroups
		}
		if start >= end {
			continue
		}
		wgWait.Add(1)
		go func(res *workerResult, start, end int) {
			defer wgWait.Done()
			wg := getWorkgroup(d)
			defer func() {
				// A kernel panic stops the worker at its first panicking
				// workgroup and leaves the Workgroup mid-group, with dirty
				// accumulators, log and recorder: it is dropped, not pooled.
				if v := recover(); v != nil {
					res.panic = v
					return
				}
				putWorkgroup(wg)
			}()
			for e := start; e < end; e++ {
				groupIndex := e * stride
				wg.beginGroup(groupIndex, unlinearIndex(groupIndex, cfg.Groups), e%sampleEvery == 0)
				p.Fn(wg)
				wg.endGroup()
			}
			wg.ctr.Workgroups += float64(end - start)
			res.ctr, res.stored, res.loaded = wg.ctr, wg.stored, wg.loaded
		}(&partials[w], start, end)
	}
	wgWait.Wait()
	// Workers own ascending group ranges, so the first recorded panic is the
	// lowest-indexed panicking workgroup's, whatever the Parallelism. It is
	// re-raised here, on the caller's goroutine, where the caller can recover
	// it; on a worker goroutine it would kill the process.
	for w := range partials {
		if v := partials[w].panic; v != nil {
			panic(v)
		}
	}
	for w := range partials {
		d.counters.Add(&partials[w].ctr)
		stored |= partials[w].stored
		loaded |= partials[w].loaded
	}

	d.counters.Scale(scale)
	d.counters.SampleScale = scale
	if p.ALUPerInvocation > 0 {
		d.counters.ALUOps += float64(p.ALUPerInvocation) * d.counters.Invocations
	}
	if p.SharedWordsPerGroup > 0 {
		shared := float64(p.SharedWordsPerGroup * 4)
		if shared > d.counters.SharedBytesPerGroup {
			d.counters.SharedBytesPerGroup = shared
		}
	}
	out := d.counters
	return &out, stored, loaded, nil
}

// workerResult is what one dispatch worker hands back: its partial counters
// and binding masks, or the value its kernel panicked with.
type workerResult struct {
	ctr            Counters
	stored, loaded uint64
	panic          any
}

// recSlot collects the cache lines touched by one (warp, access-ordinal) pair
// on a sampled workgroup. A warp of W invocations touches at most W distinct
// lines per access, so the line set is a small slice deduplicated by linear
// scan instead of a map.
type recSlot struct {
	count int
	lines []uint64
}

// recorder is the allocation-free coalescing recorder: a flat slot per
// (warp, access ordinal), grown on first use and recycled — counts zeroed,
// line buffers truncated in place — between sampled workgroups.
type recorder struct {
	slots [][]recSlot // indexed [warp][ordinal]
}

func (r *recorder) ensureWarps(n int) {
	if n > len(r.slots) {
		grown := make([][]recSlot, n)
		copy(grown, r.slots)
		r.slots = grown
	}
}

// record folds the access log of one invocation of the given warp into the
// warp's slots. An access's position in the log is its ordinal within the
// invocation, so the i-th access of every lane meets in slot i.
func (r *recorder) record(warp int, log []access, lineBytes uint64) {
	ws := r.slots[warp]
	for len(ws) < len(log) {
		ws = append(ws, recSlot{})
	}
	r.slots[warp] = ws
	for ordinal, a := range log {
		line := uint64(a.binding)<<40 | uint64(a.index)*4/lineBytes
		s := &ws[ordinal]
		s.count++
		// Neighbouring lanes mostly share a line: check the last one first.
		if n := len(s.lines); n > 0 && s.lines[n-1] == line {
			continue
		}
		if !slices.Contains(s.lines, line) {
			s.lines = append(s.lines, line)
		}
	}
}

// flush folds the recorded sample into ctr and resets every slot for reuse,
// keeping all allocated capacity.
func (r *recorder) flush(ctr *Counters, lineBytes float64) {
	var accesses, lines int64
	for _, ws := range r.slots {
		for i := range ws {
			s := &ws[i]
			if s.count == 0 {
				continue
			}
			accesses += int64(s.count)
			lines += int64(len(s.lines))
			s.count = 0
			s.lines = s.lines[:0]
		}
	}
	ctr.SampledUsefulBytes += float64(accesses) * 4
	ctr.SampledTransactionBytes += float64(lines) * lineBytes
}

// workgroupPool recycles Workgroup contexts — including their coalescing
// recorders and shared-memory scratch — across dispatches, so steady-state
// execution allocates nothing per sampled workgroup.
var workgroupPool = sync.Pool{New: func() any { return new(Workgroup) }}

// getWorkgroup checks a Workgroup out of the pool and binds it to the
// dispatch. Accumulators are already zero (endGroup flushes them), the access
// log is empty (ForEach folds it after every invocation) and pooled
// recorder/scratch buffers are reset on reuse, so only the counters and the
// invocation back-pointer need refreshing. A Workgroup whose kernel panicked
// never returns to the pool, so this holds for every pooled one.
func getWorkgroup(d *Dispatch) *Workgroup {
	wg := workgroupPool.Get().(*Workgroup)
	wg.disp = d
	wg.ctr, wg.stored, wg.loaded = Counters{}, 0, 0
	wg.inv = Invocation{wg: wg}
	return wg
}

func putWorkgroup(wg *Workgroup) {
	wg.disp = nil
	workgroupPool.Put(wg)
}

// Workgroup is the execution context of one workgroup. It is reused across
// workgroups by the dispatch engine; kernel bodies must not retain it (nor
// anything obtained from it, such as shared-memory arrays).
type Workgroup struct {
	disp       *Dispatch
	id         Dim3
	groupIndex int
	ctr        Counters
	rec        *recorder
	inv        Invocation
	sharedUsed int

	// Per-access counter updates are batched into integer accumulators and
	// flushed into ctr once per ForEach pass, keeping the load/store hot path
	// to an integer increment.
	accInv    int64
	accLoads  int64
	accStores int64
	accALU    int64
	accLocal  int64
	// stored and loaded have bit i set once the workgroup stored to or
	// loaded from binding i.
	stored, loaded uint64

	// On a sampled (recording) workgroup every global access of the running
	// invocation is appended to log; ForEach folds it into rec when the
	// invocation returns.
	recording bool
	log       []access

	// Pooled shared-memory scratch, recycled (zeroed, not reallocated)
	// between workgroups.
	sharedF32 scratch[float32]
	sharedI32 scratch[int32]
}

// beginGroup points the reused Workgroup at its next workgroup of the range.
func (wg *Workgroup) beginGroup(groupIndex int, id Dim3, recording bool) {
	wg.groupIndex = groupIndex
	wg.id = id
	wg.recording = recording
	wg.sharedUsed = 0
	wg.sharedF32.reset()
	wg.sharedI32.reset()
	if recording {
		if wg.rec == nil {
			wg.rec = &recorder{}
		}
		warps := (wg.disp.local.Count() + wg.disp.cfg.WarpSize - 1) / wg.disp.cfg.WarpSize
		wg.rec.ensureWarps(warps)
	}
}

// endGroup flushes the batched accumulators and the coalescing sample of the
// finished workgroup into the counters.
func (wg *Workgroup) endGroup() {
	wg.flushAccums()
	if wg.recording {
		wg.rec.flush(&wg.ctr, float64(wg.disp.cfg.CacheLineBytes))
	}
}

// flushAccums folds the integer accumulators into the float64 counters.
func (wg *Workgroup) flushAccums() {
	c := &wg.ctr
	if wg.accInv != 0 {
		c.Invocations += float64(wg.accInv)
		wg.accInv = 0
	}
	if wg.accLoads != 0 {
		c.GlobalLoads += float64(wg.accLoads)
		c.GlobalLoadBytes += float64(wg.accLoads * 4)
		wg.accLoads = 0
	}
	if wg.accStores != 0 {
		c.GlobalStores += float64(wg.accStores)
		c.GlobalStoreBytes += float64(wg.accStores * 4)
		wg.accStores = 0
	}
	if wg.accALU != 0 {
		c.ALUOps += float64(wg.accALU)
		wg.accALU = 0
	}
	if wg.accLocal != 0 {
		c.LocalOps += float64(wg.accLocal)
		// Every shared array the kernel API exposes (SharedF32/SharedI32) is
		// 32-bit typed, so LocalOp accesses are 4 bytes wide; the byte counter
		// lets the timing model stay width-agnostic.
		c.LocalBytes += float64(wg.accLocal * 4)
		wg.accLocal = 0
	}
}

// ID returns the 3-D workgroup index (WorkgroupId in SPIR-V).
func (wg *Workgroup) ID() Dim3 { return wg.id }

// GroupIndex returns the linearised workgroup index.
func (wg *Workgroup) GroupIndex() int { return wg.groupIndex }

// Groups returns the dispatch grid size in workgroups.
func (wg *Workgroup) Groups() Dim3 { return wg.disp.cfg.Groups }

// LocalSize returns the workgroup's local size.
func (wg *Workgroup) LocalSize() Dim3 { return wg.disp.local }

// Buffer returns a counted view of the storage buffer at the given binding.
func (wg *Workgroup) Buffer(binding int) BufferView {
	if binding < 0 || binding >= len(wg.disp.cfg.Buffers) {
		panic(fmt.Sprintf("kernels: %s accesses unbound binding %d", wg.disp.Program.Name, binding))
	}
	return BufferView{data: wg.disp.cfg.Buffers[binding], wg: wg, binding: binding}
}

// PushU32 reads push-constant word i as an unsigned integer.
func (wg *Workgroup) PushU32(i int) uint32 { return wg.disp.cfg.Push[i] }

// PushI32 reads push-constant word i as a signed integer.
func (wg *Workgroup) PushI32(i int) int32 { return int32(wg.disp.cfg.Push[i]) }

// PushF32 reads push-constant word i as a float.
func (wg *Workgroup) PushF32(i int) float32 { return math.Float32frombits(wg.disp.cfg.Push[i]) }

// scratch is a pool of workgroup-local arrays: buffers are handed out in call
// order, kept across workgroups, and zeroed — not reallocated — on reuse.
type scratch[T float32 | int32] struct {
	bufs [][]T
	next int
}

func (s *scratch[T]) take(n int) []T {
	if s.next < len(s.bufs) && cap(s.bufs[s.next]) >= n {
		buf := s.bufs[s.next][:n]
		s.next++
		clear(buf)
		return buf
	}
	buf := make([]T, n)
	if s.next < len(s.bufs) {
		s.bufs[s.next] = buf
	} else {
		s.bufs = append(s.bufs, buf)
	}
	s.next++
	return buf
}

func (s *scratch[T]) reset() { s.next = 0 }

// SharedF32 allocates a workgroup-local float array of n elements, zeroed as
// if freshly allocated. The allocation counts toward the workgroup's
// shared-memory footprint. The backing array is recycled between workgroups
// and must not be retained past the kernel body.
func (wg *Workgroup) SharedF32(n int) []float32 {
	wg.noteShared(n * 4)
	return wg.sharedF32.take(n)
}

// SharedI32 allocates a workgroup-local int array of n elements, with the
// same recycling contract as SharedF32.
func (wg *Workgroup) SharedI32(n int) []int32 {
	wg.noteShared(n * 4)
	return wg.sharedI32.take(n)
}

func (wg *Workgroup) noteShared(bytes int) {
	wg.sharedUsed += bytes
	if float64(wg.sharedUsed) > wg.ctr.SharedBytesPerGroup {
		wg.ctr.SharedBytesPerGroup = float64(wg.sharedUsed)
	}
}

// LocalOp accounts for n accesses to workgroup-local (shared) memory.
func (wg *Workgroup) LocalOp(n int) { wg.accLocal += int64(n) }

// Barrier marks a workgroup-wide execution and memory barrier. Synchronisation
// semantics are already provided by the phase structure (each ForEach pass
// completes before the next starts); Barrier exists to account for the cost.
func (wg *Workgroup) Barrier() { wg.ctr.Barriers++ }

// ForEach runs fn once per invocation in the workgroup. Successive ForEach
// calls form barrier-separated phases. The *Invocation passed to fn is reused
// between invocations and must not be retained. Kernel bodies touch buffers
// only inside fn: on a sampled workgroup the accesses an invocation logged
// are folded into the coalescing recorder as soon as fn returns for it.
func (wg *Workgroup) ForEach(fn func(inv *Invocation)) {
	local := wg.disp.local
	base := Dim3{X: wg.id.X * local.X, Y: wg.id.Y * local.Y, Z: wg.id.Z * local.Z}
	inv := &wg.inv
	inv.localIndex = 0
	for z := 0; z < local.Z; z++ {
		inv.local.Z, inv.global.Z = z, base.Z+z
		for y := 0; y < local.Y; y++ {
			inv.local.Y, inv.global.Y = y, base.Y+y
			for x := 0; x < local.X; x++ {
				inv.local.X, inv.global.X = x, base.X+x
				fn(inv)
				if wg.recording {
					wg.rec.record(inv.localIndex/wg.disp.cfg.WarpSize, wg.log, uint64(wg.disp.cfg.CacheLineBytes))
					wg.log = wg.log[:0]
				}
				inv.localIndex++
			}
		}
	}
	wg.accInv += int64(local.Count())
	wg.flushAccums()
}

// access is one logged global access: element index of a binding.
type access struct {
	binding, index int
}

// noteLoad counts one 4-byte global load of element idx of the given binding
// and marks the binding loaded from. On a sampled workgroup it also logs the
// access for the coalescing recorder, which ForEach feeds once the invocation
// returns; on the ~97% of workgroups that record nothing it is a counter
// increment and an OR. It must stay small enough that every plain BufferView
// accessor inlines into kernel bodies (TestBufferAccessorsInline). A binding
// is below MaxBindings, so masking the shift changes no bit; the mask spares
// the overflow guard Go would otherwise emit on every load.
func (wg *Workgroup) noteLoad(binding, idx int) {
	wg.accLoads++
	wg.loaded |= 1 << (uint(binding) & 63)
	if wg.recording {
		wg.log = append(wg.log, access{binding, idx})
	}
}

// noteStore counts one 4-byte global store, like noteLoad, and marks the
// binding stored to.
func (wg *Workgroup) noteStore(binding, idx int) {
	wg.accStores++
	wg.stored |= 1 << (uint(binding) & 63)
	if wg.recording {
		wg.log = append(wg.log, access{binding, idx})
	}
}

// Invocation identifies a single work-item within a workgroup. The same
// Invocation value is reused for every work-item of a ForEach pass.
type Invocation struct {
	wg         *Workgroup
	local      Dim3
	global     Dim3
	localIndex int
}

// LocalID returns the invocation's LocalInvocationId.
func (inv *Invocation) LocalID() Dim3 { return inv.local }

// GlobalID returns the invocation's GlobalInvocationId.
func (inv *Invocation) GlobalID() Dim3 { return inv.global }

// LocalIndex returns the linearised local index within the workgroup.
func (inv *Invocation) LocalIndex() int { return inv.localIndex }

// GlobalX is shorthand for GlobalID().X.
func (inv *Invocation) GlobalX() int { return inv.global.X }

// GlobalY is shorthand for GlobalID().Y.
func (inv *Invocation) GlobalY() int { return inv.global.Y }

// LocalX is shorthand for LocalID().X.
func (inv *Invocation) LocalX() int { return inv.local.X }

// LocalY is shorthand for LocalID().Y.
func (inv *Invocation) LocalY() int { return inv.local.Y }

// ALU accounts for n arithmetic operations performed by the invocation.
func (inv *Invocation) ALU(n int) { inv.wg.accALU += int64(n) }
