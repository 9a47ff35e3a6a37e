package core

import (
	"container/list"
	"sync"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
)

// DefaultSnapshotCacheEntries bounds a SnapshotCache built with size 0. It
// comfortably covers the full -run all grid (every platform × benchmark ×
// workload × API cell of every figure) while keeping worst-case trace memory
// bounded: the largest trace a full reproduction records (about 7,300
// events and 900 dispatches) holds about 0.3 MB — 24-byte events, a
// 120-byte record per dispatch, each distinct cost once — so even 512 such
// entries stay under 160 MB.
const DefaultSnapshotCacheEntries = 512

// SnapshotKey identifies one measurement cell up to everything that can
// change its execution trace. Crucially it does NOT include any timing-only
// profile field: two platforms that differ only in DriverProfile knob values
// (a calibration sweep's candidates) map to the same key and share one
// executed snapshot, which is the entire point of the snapshot layer. The
// counter-relevant structural fields are folded in via
// hw.Profile.ExecutionFingerprint. The key is a comparable value, usable as a
// map key by any SnapshotStore implementation.
type SnapshotKey struct {
	Platform    string
	Fingerprint string
	Benchmark   string
	Workload    string
	API         hw.API
	Seed        int64
	Reps        int
	Warmup      int
	Validate    bool
}

// SnapshotStore is the pluggable storage layer behind the execute/replay
// seam: the runner asks it for an already-executed cell before paying for
// execution, and offers it the snapshot of every clean first-attempt
// execution afterwards. Implementations must be safe for concurrent use (the
// suite scheduler's workers share one store) and must degrade internal
// failures — a corrupt entry, a full disk — to misses and dropped puts, never
// to errors: storage is an accelerator, not a correctness dependency.
//
// The faulted-executions-never-stored invariant is enforced at the runner
// boundary (only clean first attempts reach Put), so implementations may
// persist anything they are handed.
type SnapshotStore interface {
	// Get returns the snapshot for the key, or ok=false on a miss.
	Get(k SnapshotKey) (*Snapshot, bool)
	// Put stores the snapshot under the key (best-effort).
	Put(k SnapshotKey, s *Snapshot)
	// Stats reports the store's traffic, per tier where applicable.
	Stats() CacheStats
}

// TierStats is the traffic of one tier of a composed store.
type TierStats struct {
	// Tier names the tier ("memory", "disk").
	Tier string
	// Hits, Misses and Evictions count this tier's own traffic. For the
	// memory tier of a tiered store, misses include lookups later satisfied
	// by the disk tier.
	Hits, Misses, Evictions uint64
	// Entries is the tier's current entry count.
	Entries int
	// Bytes is the tier's storage footprint, where it tracks one (disk).
	Bytes int64
	// DecodeFailures counts entries that existed but could not be decoded —
	// corrupted, truncated, codec-version-mismatched or referencing kernels
	// that no longer exist. Each one degraded to a miss.
	DecodeFailures uint64
	// DroppedPuts counts snapshots the tier failed to persist (encode errors,
	// I/O failures). Each one degraded to a no-op.
	DroppedPuts uint64
}

// CacheStats reports a store's traffic. At the top level Lookups = Hits +
// Misses. A miss is a cell the store could not replay: a batch run executes
// every one, and the serve front end executes or sheds each. Composed stores
// additionally break traffic down per tier; the flat fields count the
// composition's own lookups, so a warm store reads 0 misses.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Entries                 int

	// Tiers breaks the traffic down per tier for composed stores (nil for a
	// plain in-memory cache).
	Tiers []TierStats
}

// SnapshotCache is a bounded, concurrency-safe in-memory LRU SnapshotStore.
// The suite scheduler's workers share one instance, so all methods take an
// internal lock; the expensive work (executing a cell, replaying a trace)
// happens outside the lock.
type SnapshotCache struct {
	mu        sync.Mutex
	max       int
	ll        *list.List // front = most recently used
	entries   map[SnapshotKey]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheEntry struct {
	key  SnapshotKey
	snap *Snapshot
}

// NewSnapshotCache returns a cache bounded to maxEntries snapshots
// (DefaultSnapshotCacheEntries when maxEntries <= 0). The least recently used
// snapshot is evicted when the bound is exceeded.
func NewSnapshotCache(maxEntries int) *SnapshotCache {
	if maxEntries <= 0 {
		maxEntries = DefaultSnapshotCacheEntries
	}
	return &SnapshotCache{
		max:     maxEntries,
		ll:      list.New(),
		entries: make(map[SnapshotKey]*list.Element),
	}
}

// Get returns the snapshot for the key, updating recency and hit/miss stats.
func (c *SnapshotCache) Get(k SnapshotKey) (*Snapshot, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).snap, true
}

// Put inserts (or replaces) the snapshot for the key, evicting the least
// recently used entry beyond the bound.
func (c *SnapshotCache) Put(k SnapshotKey, s *Snapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*cacheEntry).snap = s
		c.ll.MoveToFront(el)
		return
	}
	c.entries[k] = c.ll.PushFront(&cacheEntry{key: k, snap: s})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// Stats returns a consistent snapshot of the cache counters.
func (c *SnapshotCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.ll.Len(),
	}
}

// tierStats is Stats reshaped as one tier of a composed store.
func (c *SnapshotCache) tierStats(name string) TierStats {
	s := c.Stats()
	return TierStats{Tier: name, Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions, Entries: s.Entries}
}

// Peek reports whether the key is resident, without updating recency or
// counting a hit/miss. It is advisory, for instrumentation such as telling
// which tier answered a Get; decisions rest on Get itself.
func (c *SnapshotCache) Peek(k SnapshotKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[k]
	return ok
}

// CellKey returns the snapshot-store key Run would use for this cell under
// the runner's current settings. Exported for callers that address a store
// directly, such as tests seeding or inspecting entries and trace tools that
// map store traffic back to cells.
func (r *Runner) CellKey(p *platforms.Platform, b Benchmark, api hw.API, w Workload) SnapshotKey {
	return r.snapshotKey(p, b, api, w)
}

// snapshotKey builds the store key of one cell under this runner's settings.
func (r *Runner) snapshotKey(p *platforms.Platform, b Benchmark, api hw.API, w Workload) SnapshotKey {
	reps := r.Repetitions
	if reps <= 0 {
		reps = 1
	}
	warmup := r.Warmup
	if warmup < 0 {
		warmup = 0
	}
	return SnapshotKey{
		Platform:    p.ID,
		Fingerprint: p.Profile.ExecutionFingerprint(),
		Benchmark:   b.Name(),
		Workload:    w.Label,
		API:         api,
		Seed:        r.Seed,
		Reps:        reps,
		Warmup:      warmup,
		Validate:    r.Validate,
	}
}
