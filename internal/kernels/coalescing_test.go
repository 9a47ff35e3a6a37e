package kernels_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vcomputebench/internal/kernels"
)

// TestCoalescingSampleMatchesReference is a seeded property test of the whole
// dispatch engine: each random program runs through kernels.Execute and
// through a reference model kept here, and every field of the two Counters
// must be equal. The reference mirrors the engine's documented sampling
// rules (every stride-th workgroup executed, every sampleEvery-th executed
// workgroup feeding the coalescing sample) but records the sample in a map
// of (warp, access ordinal) to the set of cache lines touched, so the
// engine's slot recorder is checked against an independent implementation.
func TestCoalescingSampleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 120; i++ {
		s := randomSpec(rng)
		t.Run(fmt.Sprintf("%03d", i), func(t *testing.T) {
			in := s.inputs(rng)
			prog, cfg := s.dispatch(in)
			got, _, _, err := kernels.Execute(prog, cfg)
			if err != nil {
				t.Fatalf("%s: %v", s, err)
			}
			want := s.reference(in)
			if *got != want {
				t.Fatalf("%s:\n  got  %+v\n  want %+v", s, *got, want)
			}
		})
	}
}

// Binding layout of a random program: nIn read-only inputs, then an output
// written at unique indices, an atomics buffer and a flag buffer written
// with StoreU32Shared.
type coalesceSpec struct {
	local, groups kernels.Dim3
	passes        int
	warp, line    int
	exact         bool
	maxExact      int
	parallelism   int
	nIn           int
	inLen         [3]int
	// Per pass: the access pattern (0 unit stride, 1 strided, 2 scattered),
	// its stride and how many extra loads an input word may ask for.
	pattern, stride, maxExtra [3]int
	storeMul                  int // odd, so stores stay a permutation
	atomicEvery, flagEvery    int
	aluPerInv, sharedWords    int
}

const (
	atomicWords = 16
	flagWords   = 8
)

var specLocalSizes = []kernels.Dim3{
	kernels.D1(1), kernels.D1(33), kernels.D1(64), kernels.D1(100),
	kernels.D2(16, 16), kernels.D2(7, 5), kernels.D2(8, 8),
	kernels.D3(4, 4, 4), kernels.D3(5, 3, 2), kernels.D3(2, 2, 17),
}

func randomSpec(rng *rand.Rand) coalesceSpec {
	s := coalesceSpec{
		local:       specLocalSizes[rng.Intn(len(specLocalSizes))],
		passes:      1 + rng.Intn(3),
		warp:        []int{32, 64}[rng.Intn(2)],
		line:        []int{32, 64, 128}[rng.Intn(3)],
		exact:       rng.Intn(3) == 0,
		parallelism: 1 + rng.Intn(4),
		nIn:         1 + rng.Intn(3),
		storeMul:    2*rng.Intn(8) + 1,
		atomicEvery: 1 + rng.Intn(5),
		flagEvery:   1 + rng.Intn(7),
	}
	switch rng.Intn(3) {
	case 0:
		s.groups = kernels.D1(1 + rng.Intn(48))
	case 1:
		s.groups = kernels.D2(1+rng.Intn(8), 1+rng.Intn(6))
	default:
		s.groups = kernels.D3(1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(3))
	}
	total := s.groups.Count() * s.local.Count()
	// Half the programs run under a cap that forces workgroup sampling
	// (ignored when the program is Exact); the rest run every workgroup.
	if rng.Intn(2) == 0 && s.groups.Count() > 1 {
		s.maxExact = 1 + rng.Intn(total/2+1)
	}
	for b := range s.inLen {
		s.inLen[b] = 1 + rng.Intn(4096)
	}
	for p := range s.pattern {
		s.pattern[p] = rng.Intn(3)
		s.stride[p] = 1 + rng.Intn(40)
		s.maxExtra[p] = rng.Intn(6)
	}
	if rng.Intn(3) == 0 {
		s.aluPerInv = 1 + rng.Intn(4)
	}
	if rng.Intn(3) == 0 {
		s.sharedWords = 1 + rng.Intn(64)
	}
	return s
}

func (s coalesceSpec) String() string {
	return fmt.Sprintf("local %v groups %v passes %d warp %d line %d exact %v maxExact %d parallelism %d inputs %d",
		s.local, s.groups, s.passes, s.warp, s.line, s.exact, s.maxExact, s.parallelism, s.nIn)
}

func (s coalesceSpec) extent() kernels.Dim3 {
	return kernels.D3(s.groups.X*s.local.X, s.groups.Y*s.local.Y, s.groups.Z*s.local.Z)
}

// outStride is a power of two at least the invocation count, so each pass's
// stores form a permutation of its own output block.
func (s coalesceSpec) outStride() int {
	n := 1
	for n < s.extent().Count() {
		n *= 2
	}
	return n
}

func (s coalesceSpec) inputs(rng *rand.Rand) [][]uint32 {
	in := make([][]uint32, s.nIn)
	for b := range in {
		in[b] = make([]uint32, s.inLen[b])
		for i := range in[b] {
			in[b][i] = rng.Uint32()
		}
	}
	return in
}

// memory is what one invocation of a random program does; the kernel and the
// reference implement it, so both run the same program.
type memory interface {
	load(binding, i int) uint32
	store(binding, i int, v uint32)
	atomic(binding, i int, v uint32)
	storeShared(binding, i int, v uint32)
	alu(n int)
	localOp(n int)
}

// invocation is the body of the random program for one invocation. The number
// of loads depends on a loaded word, so access counts are data dependent and
// differ between the lanes of a warp.
func (s coalesceSpec) invocation(m memory, pass, gid int) {
	out, atom, flag := s.nIn, s.nIn+1, s.nIn+2
	v := m.load(0, (gid*s.stride[pass])%s.inLen[0])
	extra := int(v % uint32(s.maxExtra[pass]+1))
	for k := 0; k < extra; k++ {
		b := (k + pass) % s.nIn
		var idx int
		switch s.pattern[pass] {
		case 0:
			idx = gid + k
		case 1:
			idx = gid*s.stride[pass] + k
		default:
			idx = int((uint32(gid)*2654435761 + uint32(k)*40503) >> 7)
		}
		m.load(b, idx%s.inLen[b])
	}
	m.alu(int(v % 7))
	if v%3 != 0 {
		n := s.outStride()
		m.store(out, pass*n+(gid*s.storeMul)%n, v)
	}
	if gid%s.atomicEvery == 0 {
		m.atomic(atom, int(v>>8)%atomicWords, v)
	}
	if (gid+pass)%s.flagEvery == 0 {
		m.storeShared(flag, gid%flagWords, 1)
	}
	m.localOp(int(v>>4) % 3)
}

// sharedWordsFor is the workgroup-local footprint requested by a group.
func (s coalesceSpec) sharedWordsFor(groupIndex int) int { return (groupIndex*7)%13 + 1 }

// deviceMemory runs the random program through the engine's buffer views.
// The typed accessor is picked by index, so every accessor is exercised.
type deviceMemory struct {
	wg    *kernels.Workgroup
	inv   *kernels.Invocation
	views []kernels.BufferView
}

func (m *deviceMemory) load(b, i int) uint32 {
	switch i % 3 {
	case 0:
		return m.views[b].LoadU32(m.inv, i)
	case 1:
		return uint32(m.views[b].LoadI32(m.inv, i))
	default:
		return math.Float32bits(m.views[b].LoadF32(m.inv, i))
	}
}

func (m *deviceMemory) store(b, i int, v uint32) {
	switch i % 3 {
	case 0:
		m.views[b].StoreU32(m.inv, i, v)
	case 1:
		m.views[b].StoreI32(m.inv, i, int32(v))
	default:
		m.views[b].StoreF32(m.inv, i, float32(v&0xffff))
	}
}

func (m *deviceMemory) atomic(b, i int, v uint32) {
	switch v % 3 {
	case 0:
		m.views[b].AtomicAddI32(m.inv, i, int32(v&0xff))
	case 1:
		m.views[b].AtomicOrU32(m.inv, i, v)
	default:
		m.views[b].AtomicMinF32(m.inv, i, float32(v&0xfff))
	}
}

func (m *deviceMemory) storeShared(b, i int, v uint32) { m.views[b].StoreU32Shared(m.inv, i, v) }
func (m *deviceMemory) alu(n int)                      { m.inv.ALU(n) }
func (m *deviceMemory) localOp(n int)                  { m.wg.LocalOp(n) }

func (s coalesceSpec) dispatch(in [][]uint32) (*kernels.Program, kernels.DispatchConfig) {
	bufs := make([]kernels.Words, s.nIn+3)
	for b := range in {
		bufs[b] = kernels.Words(in[b])
	}
	bufs[s.nIn] = make(kernels.Words, s.passes*s.outStride())
	bufs[s.nIn+1] = make(kernels.Words, atomicWords)
	bufs[s.nIn+2] = make(kernels.Words, flagWords)
	ext := s.extent()
	prog := &kernels.Program{
		Name:                "test_coalesce_property",
		LocalSize:           s.local,
		Bindings:            len(bufs),
		Exact:               s.exact,
		ALUPerInvocation:    s.aluPerInv,
		SharedWordsPerGroup: s.sharedWords,
		Fn: func(wg *kernels.Workgroup) {
			views := make([]kernels.BufferView, len(bufs))
			for b := range views {
				views[b] = wg.Buffer(b)
			}
			wg.SharedF32(s.sharedWordsFor(wg.GroupIndex()))
			for pass := 0; pass < s.passes; pass++ {
				if pass > 0 {
					wg.Barrier()
				}
				wg.ForEach(func(inv *kernels.Invocation) {
					g := inv.GlobalID()
					m := deviceMemory{wg: wg, inv: inv, views: views}
					s.invocation(&m, pass, (g.Z*ext.Y+g.Y)*ext.X+g.X)
				})
			}
		},
	}
	return prog, kernels.DispatchConfig{
		Groups:              s.groups,
		Buffers:             bufs,
		WarpSize:            s.warp,
		CacheLineBytes:      s.line,
		MaxExactInvocations: s.maxExact,
		Parallelism:         s.parallelism,
	}
}

// refAccess is one global access logged by the reference.
type refAccess struct{ binding, index int }

// refMemory executes the random program on plain slices, logging accesses.
type refMemory struct {
	in                              [][]uint32
	log                             []refAccess
	loads, stores, aluOps, localOps int64
}

func (m *refMemory) note(b, i int) { m.log = append(m.log, refAccess{b, i}) }

func (m *refMemory) load(b, i int) uint32 {
	m.loads++
	m.note(b, i)
	if i%3 == 2 {
		// deviceMemory reads these through LoadF32; take the same round trip.
		return math.Float32bits(math.Float32frombits(m.in[b][i]))
	}
	return m.in[b][i]
}

func (m *refMemory) store(b, i int, _ uint32) {
	m.stores++
	m.note(b, i)
}

// atomic counts as a load and a store of the same element, in that order.
func (m *refMemory) atomic(b, i int, _ uint32) {
	m.loads++
	m.note(b, i)
	m.store(b, i, 0)
}

func (m *refMemory) storeShared(b, i int, v uint32) { m.store(b, i, v) }
func (m *refMemory) alu(n int)                      { m.aluOps += int64(n) }
func (m *refMemory) localOp(n int)                  { m.localOps += int64(n) }

// reference computes the Counters Execute must return for the program.
func (s coalesceSpec) reference(in [][]uint32) kernels.Counters {
	totalGroups := s.groups.Count()
	totalInv := totalGroups * s.local.Count()
	maxExact := s.maxExact
	if maxExact <= 0 {
		maxExact = kernels.DefaultMaxExactInvocations
	}
	stride := 1
	if !s.exact && totalInv > maxExact {
		stride = (totalInv + maxExact - 1) / maxExact
	}
	executed := (totalGroups + stride - 1) / stride
	sampleEvery := (executed + 7) / 8

	ext := s.extent()
	var invocations, barriers, useful, lines int64
	var shared int
	m := &refMemory{in: in}
	for e := 0; e < executed; e++ {
		groupIndex := e * stride
		gid := kernels.D3(groupIndex%s.groups.X, groupIndex/s.groups.X%s.groups.Y, groupIndex/(s.groups.X*s.groups.Y))
		shared = max(shared, 4*s.sharedWordsFor(groupIndex))
		sampled := e%sampleEvery == 0
		// The sample of one workgroup: (warp, access ordinal) -> lines.
		sample := map[[2]int]map[uint64]bool{}
		for pass := 0; pass < s.passes; pass++ {
			if pass > 0 {
				barriers++
			}
			for z := 0; z < s.local.Z; z++ {
				for y := 0; y < s.local.Y; y++ {
					for x := 0; x < s.local.X; x++ {
						lin := (z*s.local.Y+y)*s.local.X + x
						gx, gy, gz := gid.X*s.local.X+x, gid.Y*s.local.Y+y, gid.Z*s.local.Z+z
						m.log = m.log[:0]
						s.invocation(m, pass, (gz*ext.Y+gy)*ext.X+gx)
						invocations++
						if !sampled {
							continue
						}
						for ordinal, a := range m.log {
							key := [2]int{lin / s.warp, ordinal}
							if sample[key] == nil {
								sample[key] = map[uint64]bool{}
							}
							sample[key][uint64(a.binding)<<40|uint64(a.index*4/s.line)] = true
							useful += 4
						}
					}
				}
			}
		}
		for _, set := range sample {
			lines += int64(len(set))
		}
	}

	scale := float64(totalGroups) / float64(executed)
	c := kernels.Counters{
		Invocations:             float64(invocations) * scale,
		Workgroups:              float64(executed) * scale,
		ALUOps:                  float64(m.aluOps) * scale,
		GlobalLoads:             float64(m.loads) * scale,
		GlobalStores:            float64(m.stores) * scale,
		GlobalLoadBytes:         float64(4*m.loads) * scale,
		GlobalStoreBytes:        float64(4*m.stores) * scale,
		LocalOps:                float64(m.localOps) * scale,
		LocalBytes:              float64(4*m.localOps) * scale,
		SharedBytesPerGroup:     float64(max(shared, 4*s.sharedWords)),
		Barriers:                float64(barriers) * scale,
		SampledUsefulBytes:      float64(useful),
		SampledTransactionBytes: float64(lines) * float64(s.line),
		SampleScale:             scale,
	}
	c.ALUOps += float64(s.aluPerInv) * c.Invocations
	return c
}
