package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
)

// This file is the versioned binary codec for Snapshot, layered over the
// hw.Trace codec: everything the execute/replay seam captured for one cell —
// the symbolic timing trace, the Result bindings, the timing-independent
// extras — serialises to a self-contained byte stream the persistent store
// can write to disk and re-bind in a later process. SnapshotCodecVersion
// must be bumped on any layout change; a mismatched or mangled stream fails
// decoding (never panics), which stores degrade to a miss.

// SnapshotCodecVersion is the current wire-format version of EncodeSnapshot.
const SnapshotCodecVersion = 2

var snapshotMagic = [4]byte{'V', 'C', 'S', 'N'}

// EncodeSnapshot serialises a snapshot. Map-valued fields are written in
// sorted key order, so identical snapshots encode to identical bytes.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	if s == nil || s.trace == nil {
		return nil, fmt.Errorf("core: encode of nil or trace-less snapshot")
	}
	trace, err := hw.EncodeTrace(s.trace)
	if err != nil {
		return nil, err
	}
	b := append([]byte(nil), snapshotMagic[:]...)
	b = binary.AppendUvarint(b, SnapshotCodecVersion)
	b = appendString(b, s.fingerprint)
	b = appendString(b, s.benchmark)
	b = appendString(b, s.workload)
	b = appendString(b, string(s.api))
	b = binary.AppendUvarint(b, uint64(s.kernelReading))
	b = binary.AppendUvarint(b, uint64(s.totalReading))
	b = binary.AppendVarint(b, int64(s.dispatches))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.checksum))
	b = appendFloatMap(b, s.extras)
	b = appendFloatMap(b, s.throughputBytes)
	b = binary.AppendUvarint(b, uint64(len(trace)))
	return append(b, trace...), nil
}

// DecodeSnapshot deserialises a snapshot, re-binding the trace's kernel
// programs from the registry (kernels.Default when reg is nil). All the
// trace-level robustness guarantees apply; additionally the snapshot's
// reading bindings are bounds-checked against the decoded trace.
func DecodeSnapshot(data []byte, reg *kernels.Registry) (*Snapshot, error) {
	d := &snapReader{data: data}
	var magic [4]byte
	copy(magic[:], d.bytes(4))
	if d.err == nil && magic != snapshotMagic {
		return nil, fmt.Errorf("core: snapshot stream has wrong magic %q", magic)
	}
	if v := d.uvarint(); d.err == nil && v != SnapshotCodecVersion {
		return nil, fmt.Errorf("core: snapshot codec version %d, this build reads %d", v, SnapshotCodecVersion)
	}
	s := &Snapshot{}
	s.fingerprint = d.str()
	s.benchmark = d.str()
	s.workload = d.str()
	s.api = hw.API(d.str())
	s.kernelReading = int(d.uvarint())
	s.totalReading = int(d.uvarint())
	s.dispatches = int(d.varint())
	s.checksum = math.Float64frombits(binary.LittleEndian.Uint64(pad8(d.bytes(8))))
	s.extras = d.floatMap()
	s.throughputBytes = d.floatMap()
	traceLen := d.length("trace")
	traceBytes := d.bytes(traceLen)
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("core: %d trailing bytes after snapshot stream", len(data)-d.off)
	}
	tr, err := hw.DecodeTrace(traceBytes, reg)
	if err != nil {
		return nil, err
	}
	s.trace = tr
	if s.kernelReading >= len(tr.Readings) || s.totalReading >= len(tr.Readings) {
		return nil, fmt.Errorf("core: snapshot binds readings %d/%d of a trace with %d",
			s.kernelReading, s.totalReading, len(tr.Readings))
	}
	return s, nil
}

// appendString writes a uvarint-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendFloatMap writes a map in sorted key order.
func appendFloatMap(b []byte, m map[string]float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(m)))
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b = appendString(b, k)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m[k]))
	}
	return b
}

// pad8 turns a possibly-nil short read into 8 zero bytes so the caller's
// Uint64 never panics; the sticky error still fails the decode.
func pad8(b []byte) []byte {
	if len(b) == 8 {
		return b
	}
	return make([]byte, 8)
}

// snapReader is a sticky-error cursor over an encoded snapshot stream.
type snapReader struct {
	data []byte
	off  int
	err  error
}

func (d *snapReader) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("core: "+format, args...)
	}
}

func (d *snapReader) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.data) {
		d.fail("truncated snapshot stream: need %d bytes at offset %d of %d", n, d.off, len(d.data))
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

// uvarint reads a canonical uvarint: an overlong encoding, whose last byte
// is zero, is rejected, so every value has one encoding.
func (d *snapReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 || n > 1 && d.data[d.off+n-1] == 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// varint reads a canonical zigzag varint.
func (d *snapReader) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// length reads a collection size bounded by the remaining bytes.
func (d *snapReader) length(what string) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.data)-d.off) {
		d.fail("%s count %d exceeds the %d remaining bytes", what, v, len(d.data)-d.off)
		return 0
	}
	return int(v)
}

func (d *snapReader) str() string {
	n := d.length("string")
	b := d.bytes(n)
	if b == nil {
		return ""
	}
	return string(b)
}

func (d *snapReader) floatMap() map[string]float64 {
	n := d.length("map")
	if n == 0 || d.err != nil {
		return nil
	}
	m := make(map[string]float64, n)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		v := math.Float64frombits(binary.LittleEndian.Uint64(pad8(d.bytes(8))))
		if d.err == nil {
			m[k] = v
		}
	}
	if d.err != nil {
		return nil
	}
	return m
}
