package serve

import (
	"sync"

	"vcomputebench/internal/core"
)

// Circuit-breaker parameters. Counting in requests instead of wall time keeps
// the breaker deterministic under test: its state is a pure function of the
// sequence of observed reads.
const (
	// breakerThreshold is how many consecutive decode failures trip the disk
	// tier open. A lone corrupt entry costs one re-execution; a run of them
	// means the store (or its disk) is sick.
	breakerThreshold = 3
	// breakerProbeEvery is how many bypassed reads an open breaker absorbs
	// before letting one through as a half-open probe.
	breakerProbeEvery = 32
)

// breaker is a core.SnapshotStore decorator guarding the disk snapshot tier:
// every disk read that meets an entry it cannot decode (DiskStore.Load
// reports it for that read alone) counts against a consecutive-failure
// budget, and exhausting it trips the tier to miss-mode — reads answer miss
// without touching the filesystem, and writes are skipped rather than aimed
// at a disk that is eating entries. This is the store's degrade-to-miss
// invariant promoted to a tier health policy: a corrupted store costs
// re-execution, never errors. While open, every breakerProbeEvery-th read is
// allowed through as a half-open probe; a clean read (hit or plain miss)
// closes the breaker again.
type breaker struct {
	disk *core.DiskStore

	mu          sync.Mutex
	consecutive int    // decode failures since the last clean read
	open        bool   // tripped: disk answers miss-mode
	bypassed    uint64 // reads short-circuited while open, since the last probe
	trips       uint64 // times the breaker has opened (metrics)
}

func newBreaker(disk *core.DiskStore) *breaker { return &breaker{disk: disk} }

// Get reads through the breaker. While open, reads answer miss without
// touching the disk, except for the periodic half-open probe.
func (b *breaker) Get(k core.SnapshotKey) (*core.Snapshot, bool) {
	b.mu.Lock()
	if b.open {
		b.bypassed++
		if b.bypassed < breakerProbeEvery {
			b.mu.Unlock()
			return nil, false
		}
		b.bypassed = 0 // this read is the probe
	}
	b.mu.Unlock()

	snap, ok, corrupt := b.disk.Load(k)

	b.mu.Lock()
	defer b.mu.Unlock()
	if corrupt {
		b.consecutive++
		if b.consecutive >= breakerThreshold && !b.open {
			b.open = true
			b.trips++
			b.bypassed = 0
		}
		return nil, false
	}
	b.consecutive = 0
	b.open = false
	return snap, ok
}

// Put writes through unless the breaker is open: a disk that cannot decode
// its own entries should not be handed new ones.
func (b *breaker) Put(k core.SnapshotKey, s *core.Snapshot) {
	b.mu.Lock()
	open := b.open
	b.mu.Unlock()
	if !open {
		b.disk.Put(k, s)
	}
}

// Stats reports the disk tier's own traffic. Reads bypassed while open never
// reach it; the core.TieredStore over the breaker counts them as misses.
func (b *breaker) Stats() core.CacheStats { return b.disk.Stats() }

// state reports the breaker position and trip count for /metrics.
func (b *breaker) state() (open bool, trips uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open, b.trips
}
