package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
)

// This file implements the persistent tiers of the snapshot storage layer:
// DiskStore, a content-addressed on-disk SnapshotStore, and TieredStore,
// which composes the in-memory LRU over it (or over any lower store). With a
// warm disk store every run after the first is pure replay — zero workgroups
// execute, yet output stays byte-identical, because snapshots are re-valued
// under the live profile rather than replayed as wall-clock numbers.
//
// Entries are addressed by content identity: the filename is a digest of the
// full SnapshotKey plus the build's code-version fingerprint (a hash over the
// kernel and workload sources, see internal/codeversion). An entry written by
// a build whose execution-relevant code has since changed is simply never
// looked up — stale entries degrade to misses without being opened, and GC
// reclaims them by reading entry headers.

// StoreEntryVersion is the on-disk entry envelope version (the envelope wraps
// a SnapshotCodecVersion-stamped snapshot stream).
const StoreEntryVersion = 2

var storeEntryMagic = [4]byte{'V', 'C', 'S', 'E'}

const (
	snapExt     = ".snap"
	tmpExt      = ".tmp"
	indexName   = "index.json"
	dirFileMode = 0o755
)

// DiskStore is a persistent, content-addressed SnapshotStore rooted at a
// directory. It is safe for concurrent use by multiple goroutines and — via
// atomic temp-file-and-rename writes — by multiple processes sharing the
// directory. Every internal failure (corrupt entry, codec mismatch, full
// disk) degrades to a miss or a dropped put; Get and Put never fail the run.
type DiskStore struct {
	dir         string
	codeVersion string
	reg         *kernels.Registry

	hits           atomic.Uint64
	misses         atomic.Uint64
	decodeFailures atomic.Uint64
	droppedPuts    atomic.Uint64
}

// storeIndex is the metadata file written at the store root, recording which
// versions the writing build spoke. It is informational (content addressing
// alone keeps lookups sound); GC and humans read it.
type storeIndex struct {
	CodeVersion          string `json:"code_version"`
	StoreEntryVersion    int    `json:"store_entry_version"`
	SnapshotCodecVersion int    `json:"snapshot_codec_version"`
	TraceCodecVersion    int    `json:"trace_codec_version"`
}

// OpenDiskStore opens (creating if needed) a snapshot store rooted at dir.
// codeVersion is the build's code-version fingerprint
// (internal/codeversion.Fingerprint()); it is folded into every entry address
// so entries written by builds with different execution-relevant code are
// invisible. The registry resolves kernel identities at decode time; nil
// means kernels.Default.
func OpenDiskStore(dir, codeVersion string, reg *kernels.Registry) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("core: OpenDiskStore with empty directory")
	}
	if codeVersion == "" {
		return nil, fmt.Errorf("core: OpenDiskStore with empty code version")
	}
	if err := os.MkdirAll(dir, dirFileMode); err != nil {
		return nil, fmt.Errorf("core: creating snapshot store: %w", err)
	}
	s := &DiskStore{dir: dir, codeVersion: codeVersion, reg: reg}
	s.writeIndex() // best-effort; the store works without it
	return s, nil
}

// Dir returns the store's root directory.
func (s *DiskStore) Dir() string { return s.dir }

func (s *DiskStore) writeIndex() {
	idx := storeIndex{
		CodeVersion:          s.codeVersion,
		StoreEntryVersion:    StoreEntryVersion,
		SnapshotCodecVersion: SnapshotCodecVersion,
		TraceCodecVersion:    hw.TraceCodecVersion,
	}
	data, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return
	}
	tmp := filepath.Join(s.dir, indexName+tmpExt)
	if os.WriteFile(tmp, append(data, '\n'), 0o644) == nil {
		_ = os.Rename(tmp, filepath.Join(s.dir, indexName))
	}
}

// entryPath is the content address of a key under this build: a digest over
// the code-version fingerprint and every key field, so any difference in
// either lands in a different file.
func (s *DiskStore) entryPath(k SnapshotKey) string {
	return filepath.Join(s.dir, entryDigest(s.codeVersion, k)+snapExt)
}

// entryDigest hashes each string as its decimal length, a NUL, the string and
// a NUL, then the seed in decimal and the validate flag as true or false,
// each followed by a NUL. Stored entries are named by these bytes.
func entryDigest(codeVersion string, k SnapshotKey) string {
	b := make([]byte, 0, 512)
	for _, s := range [...]string{codeVersion, k.Platform, k.Fingerprint, k.Benchmark, k.Workload, string(k.API)} {
		b = strconv.AppendInt(b, int64(len(s)), 10)
		b = append(b, 0)
		b = append(b, s...)
		b = append(b, 0)
	}
	b = strconv.AppendInt(b, k.Seed, 10)
	b = append(b, 0)
	b = strconv.AppendBool(b, k.Validate)
	b = append(b, 0)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// encodeEntry wraps an encoded snapshot in the store envelope: magic,
// versions, the key (so GC and debugging tools can attribute entries without
// reversing the digest), and a CRC over the snapshot stream.
func encodeEntry(codeVersion string, k SnapshotKey, blob []byte) []byte {
	b := append([]byte(nil), storeEntryMagic[:]...)
	b = binary.AppendUvarint(b, StoreEntryVersion)
	b = appendString(b, codeVersion)
	b = appendString(b, k.Platform)
	b = appendString(b, k.Fingerprint)
	b = appendString(b, k.Benchmark)
	b = appendString(b, k.Workload)
	b = appendString(b, string(k.API))
	b = binary.AppendVarint(b, k.Seed)
	if k.Validate {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(blob))
	b = binary.AppendUvarint(b, uint64(len(blob)))
	return append(b, blob...)
}

// decodeEntry unwraps the envelope, returning the embedded code version, key
// and CRC-verified snapshot stream. Any malformation is an error; callers
// degrade it to a miss. Only canonical envelopes decode, so an envelope that
// decodes re-encodes to the same bytes.
func decodeEntry(data []byte) (codeVersion string, k SnapshotKey, blob []byte, err error) {
	d := &snapReader{data: data}
	var magic [4]byte
	copy(magic[:], d.bytes(4))
	if d.err == nil && magic != storeEntryMagic {
		return "", k, nil, fmt.Errorf("core: store entry has wrong magic %q", magic)
	}
	if v := d.uvarint(); d.err == nil && v != StoreEntryVersion {
		return "", k, nil, fmt.Errorf("core: store entry version %d, this build reads %d", v, StoreEntryVersion)
	}
	codeVersion = d.str()
	k.Platform = d.str()
	k.Fingerprint = d.str()
	k.Benchmark = d.str()
	k.Workload = d.str()
	k.API = hw.API(d.str())
	k.Seed = d.varint()
	validate := d.bytes(1)
	if len(validate) == 1 {
		if validate[0] > 1 {
			d.fail("store entry validate flag %d is not 0 or 1", validate[0])
		}
		k.Validate = validate[0] == 1
	}
	crcBytes := d.bytes(4)
	var wantCRC uint32
	if len(crcBytes) == 4 {
		wantCRC = binary.LittleEndian.Uint32(crcBytes)
	}
	blobLen := d.length("snapshot blob")
	blob = d.bytes(blobLen)
	if d.err != nil {
		return "", k, nil, d.err
	}
	if d.off != len(data) {
		return "", k, nil, fmt.Errorf("core: %d trailing bytes after store entry", len(data)-d.off)
	}
	if got := crc32.ChecksumIEEE(blob); got != wantCRC {
		return "", k, nil, fmt.Errorf("core: store entry CRC mismatch: %08x != %08x", got, wantCRC)
	}
	return codeVersion, k, blob, nil
}

// Get loads and decodes the entry for the key. Missing files are plain
// misses; existing-but-undecodable entries count a decode failure, are
// removed so they are not re-parsed every run, and degrade to a miss.
func (s *DiskStore) Get(k SnapshotKey) (*Snapshot, bool) {
	snap, ok, _ := s.Load(k)
	return snap, ok
}

// Load is Get that also reports whether this read met an entry it could not
// decode. Health monitors such as the serve circuit breaker judge each read
// by it: under concurrent reads, a change in the shared decode-failure count
// cannot say whose read failed.
func (s *DiskStore) Load(k SnapshotKey) (snap *Snapshot, ok, corrupt bool) {
	path := s.entryPath(k)
	data, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return nil, false, false
	}
	snap, err = s.decodeStored(k, data)
	if err != nil {
		s.decodeFailures.Add(1)
		s.misses.Add(1)
		_ = os.Remove(path)
		return nil, false, true
	}
	s.hits.Add(1)
	return snap, true, false
}

func (s *DiskStore) decodeStored(k SnapshotKey, data []byte) (*Snapshot, error) {
	codeVersion, storedKey, blob, err := decodeEntry(data)
	if err != nil {
		return nil, err
	}
	// Content addressing makes these mismatches near-impossible (they require
	// a digest collision or a renamed file), but a persistent store defends in
	// depth: replaying the wrong cell would silently corrupt results.
	if codeVersion != s.codeVersion {
		return nil, fmt.Errorf("core: store entry written by code version %.12s…, this build is %.12s…", codeVersion, s.codeVersion)
	}
	if storedKey != k {
		return nil, fmt.Errorf("core: store entry holds key %+v, lookup was %+v", storedKey, k)
	}
	return DecodeSnapshot(blob, s.reg)
}

// Put persists the snapshot under the key via an atomic temp-file-and-rename,
// so concurrent writers and crashing processes can never leave a partial
// entry visible. Failures are counted and dropped, never surfaced.
func (s *DiskStore) Put(k SnapshotKey, snap *Snapshot) {
	blob, err := EncodeSnapshot(snap)
	if err != nil {
		s.droppedPuts.Add(1)
		return
	}
	entry := encodeEntry(s.codeVersion, k, blob)
	path := s.entryPath(k)
	tmp, err := os.CreateTemp(s.dir, filepath.Base(path)+".*"+tmpExt)
	if err != nil {
		s.droppedPuts.Add(1)
		return
	}
	_, werr := tmp.Write(entry)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(tmp.Name())
		s.droppedPuts.Add(1)
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		s.droppedPuts.Add(1)
	}
}

// scan walks the store directory, invoking fn for every committed entry file.
func (s *DiskStore) scan(fn func(path string, size int64)) error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), snapExt) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		fn(filepath.Join(s.dir, e.Name()), info.Size())
	}
	return nil
}

// Stats reports the disk tier's traffic and current footprint.
func (s *DiskStore) Stats() CacheStats {
	t := s.tierStats()
	return CacheStats{
		Hits: t.Hits, Misses: t.Misses, Entries: t.Entries,
		Tiers: []TierStats{t},
	}
}

func (s *DiskStore) tierStats() TierStats {
	t := TierStats{
		Tier: "disk",
		Hits: s.hits.Load(), Misses: s.misses.Load(),
		DecodeFailures: s.decodeFailures.Load(),
		DroppedPuts:    s.droppedPuts.Load(),
	}
	_ = s.scan(func(path string, size int64) {
		t.Entries++
		t.Bytes += size
	})
	return t
}

// GC removes entries this build can never hit: files whose embedded code
// version differs from the current fingerprint (written by older builds),
// undecodable files, and orphaned temp files from crashed writers. It returns
// how many files were removed and how many bytes were reclaimed.
func (s *DiskStore) GC() (removed int, reclaimed int64, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, 0, fmt.Errorf("core: snapshot store GC: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(s.dir, e.Name())
		switch {
		case strings.HasSuffix(e.Name(), tmpExt):
			// Orphaned temp file from a crashed writer.
		case strings.HasSuffix(e.Name(), snapExt):
			data, rerr := os.ReadFile(path)
			if rerr != nil {
				continue
			}
			codeVersion, _, _, derr := decodeEntry(data)
			if derr == nil && codeVersion == s.codeVersion {
				continue // live entry
			}
		default:
			continue // index.json and anything else
		}
		info, ierr := e.Info()
		if rmErr := os.Remove(path); rmErr == nil {
			removed++
			if ierr == nil {
				reclaimed += info.Size()
			}
		}
	}
	return removed, reclaimed, nil
}

// TieredStore composes the in-memory LRU cache over a lower store, usually
// the persistent DiskStore (the serve front end puts its circuit breaker in
// between): Get tries memory first, falls back to the lower store and
// promotes its hits into memory; Put writes through to both. The suite
// scheduler's workers share one instance. The composition counts its own
// lookups, so a miss the lower store answers without touching its tier, such
// as an open breaker's, still counts.
type TieredStore struct {
	mem   *SnapshotCache
	lower SnapshotStore

	hits, misses atomic.Uint64
}

// NewTieredStore composes mem over lower. A nil mem gets a default-sized
// cache; lower must be non-nil (use the SnapshotCache alone for memory-only
// operation).
func NewTieredStore(mem *SnapshotCache, lower SnapshotStore) *TieredStore {
	if mem == nil {
		mem = NewSnapshotCache(0)
	}
	return &TieredStore{mem: mem, lower: lower}
}

// Get returns the snapshot from the fastest tier that has it, promoting lower
// hits into memory so repeated lookups stay off the filesystem.
func (t *TieredStore) Get(k SnapshotKey) (*Snapshot, bool) {
	if snap, ok := t.mem.Get(k); ok {
		t.hits.Add(1)
		return snap, true
	}
	snap, ok := t.lower.Get(k)
	if !ok {
		t.misses.Add(1)
		return nil, false
	}
	t.mem.Put(k, snap)
	t.hits.Add(1)
	return snap, true
}

// Put writes through to both tiers.
func (t *TieredStore) Put(k SnapshotKey, s *Snapshot) {
	t.mem.Put(k, s)
	t.lower.Put(k, s)
}

// Stats reports the composition's lookups with a per-tier breakdown: the
// memory tier followed by the lower store's tiers, so the disk tier is last.
// Hits counts lookups either tier satisfied, Misses lookups both missed.
func (t *TieredStore) Stats() CacheStats {
	mem := t.mem.tierStats("memory")
	return CacheStats{
		Hits:      t.hits.Load(),
		Misses:    t.misses.Load(),
		Evictions: mem.Evictions,
		Entries:   mem.Entries,
		Tiers:     append([]TierStats{mem}, t.lower.Stats().Tiers...),
	}
}
