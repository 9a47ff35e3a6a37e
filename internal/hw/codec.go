package hw

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"vcomputebench/internal/kernels"
)

// This file is the versioned binary codec for Trace — the piece that makes
// the execute/replay seam serializable, so a recorded trace can outlive the
// process inside the persistent snapshot store. Kernel programs are encoded
// by their stable registry identity (Program.Name) and re-bound from the
// kernels registry at decode time: a program that no longer exists, or a
// stream written by a different codec version, fails decoding loudly — the
// store turns that into a cache miss and re-executes.
//
// The stream writes the trace's tables in order, each behind its length:
//
//	header    magic, codec version, API, knob count, counter-field count
//	costs     each distinct cost: fixed part, then one count per knob
//	programs  each distinct program's registry name, once
//	kernels   each dispatch: program index, then its counters
//	events    kind and queue, then the kind's own fields: a cost index
//	          (spend, occupy), a cost and a kernel index (kernel), a byte
//	          count (transfer), a target event (wait); a mark has none
//	readings  the total number of event refs all readings hold, then each
//	          reading's kind, A, B and refs
//
// Decode makes one allocation per table and one registry lookup per
// distinct program; every index is bounds-checked against its table.
//
// TraceCodecVersion must be bumped whenever the wire layout changes:
// TraceEvent/KernelRecord/Reading/Cost fields, the Knob set, or the
// kernels.Counters field list. As a second line of defence the stream
// self-describes its knob and counter-field counts, so a forgotten bump still
// fails decoding instead of silently misreading; and as the first line, the
// snapshot store keys entries by the code-version fingerprint over these
// packages, so stale streams are normally never even opened.

// TraceCodecVersion is the current wire-format version of EncodeTrace.
const TraceCodecVersion = 3

// traceMagic guards against feeding arbitrary files to the decoder.
var traceMagic = [4]byte{'V', 'C', 'T', 'R'}

// counterFields is the number of float64 fields of kernels.Counters the codec
// writes, in declaration order. Keep in sync with the struct (the codec test
// cross-checks it by reflection).
const counterFields = 13

// Minimum encoded sizes of one table entry, which bound every declared table
// length by the bytes left in the stream before anything is allocated.
const (
	minCostBytes    = 1 + int(knobCount) // a varint per field
	minKernelBytes  = 1 + 8*counterFields
	minEventBytes   = 2 // kind and queue
	minReadingBytes = 4 // kind, A, B, ref count
)

// appendCounters writes the Counters fields in declaration order.
func appendCounters(b []byte, c *kernels.Counters) []byte {
	for _, v := range [counterFields]float64{
		c.Invocations, c.Workgroups, c.ALUOps,
		c.GlobalLoads, c.GlobalStores, c.GlobalLoadBytes, c.GlobalStoreBytes,
		c.LocalOps, c.LocalBytes, c.SharedBytesPerGroup, c.Barriers,
		c.SampledUsefulBytes, c.SampledTransactionBytes,
	} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// readCounters reads what appendCounters wrote. SampleScale is derived state
// the dispatch engine folds into the extensive counters before recording, so
// it is intentionally not part of the wire format.
func (d *traceReader) readCounters(c *kernels.Counters) {
	var v [counterFields]float64
	for i := range v {
		v[i] = d.f64()
	}
	c.Invocations, c.Workgroups, c.ALUOps = v[0], v[1], v[2]
	c.GlobalLoads, c.GlobalStores, c.GlobalLoadBytes, c.GlobalStoreBytes = v[3], v[4], v[5], v[6]
	c.LocalOps, c.LocalBytes, c.SharedBytesPerGroup, c.Barriers = v[7], v[8], v[9], v[10]
	c.SampledUsefulBytes, c.SampledTransactionBytes = v[11], v[12]
}

// EncodeTrace serialises a trace. Every dispatch must carry a program with a
// non-empty registry name; anything else cannot be re-bound at decode time
// and is rejected here, before bytes ever reach a store.
func EncodeTrace(t *Trace) ([]byte, error) {
	if t == nil {
		return nil, fmt.Errorf("hw: encode of nil trace")
	}
	var progs []string
	for i := range t.Kernels {
		prog := t.Kernels[i].Prog
		if prog == nil || prog.Name == "" {
			return nil, fmt.Errorf("hw: kernel %d: dispatch without a registry-named program", i)
		}
		if !slices.Contains(progs, prog.Name) {
			progs = append(progs, prog.Name)
		}
	}

	b := append([]byte(nil), traceMagic[:]...)
	b = binary.AppendUvarint(b, TraceCodecVersion)
	b = appendString(b, string(t.API))
	b = binary.AppendUvarint(b, uint64(knobCount))
	b = binary.AppendUvarint(b, counterFields)

	b = binary.AppendUvarint(b, uint64(len(t.Costs)))
	for i := range t.Costs {
		c := &t.Costs[i]
		b = binary.AppendVarint(b, int64(c.Fixed))
		for _, n := range c.Counts {
			b = binary.AppendVarint(b, int64(n))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(progs)))
	for _, name := range progs {
		b = appendString(b, name)
	}
	b = binary.AppendUvarint(b, uint64(len(t.Kernels)))
	for i := range t.Kernels {
		k := &t.Kernels[i]
		b = binary.AppendUvarint(b, uint64(slices.Index(progs, k.Prog.Name)))
		b = appendCounters(b, &k.Counters)
	}

	b = binary.AppendUvarint(b, uint64(len(t.Events)))
	for i := range t.Events {
		ev := &t.Events[i]
		b = append(b, byte(ev.Kind), ev.Queue)
		switch ev.Kind {
		case EvSpend, EvOccupy:
			b = binary.AppendUvarint(b, uint64(ev.Cost))
		case EvKernel:
			b = binary.AppendUvarint(b, uint64(ev.Cost))
			b = binary.AppendUvarint(b, uint64(ev.Kernel))
		case EvTransfer:
			b = binary.AppendVarint(b, ev.Bytes)
		case EvWait:
			b = binary.AppendVarint(b, int64(ev.Ref))
		}
	}

	b = binary.AppendUvarint(b, uint64(len(t.Readings)))
	refs := 0
	for i := range t.Readings {
		refs += len(t.Readings[i].Refs)
	}
	b = binary.AppendUvarint(b, uint64(refs))
	for i := range t.Readings {
		r := &t.Readings[i]
		b = append(b, byte(r.Kind))
		b = binary.AppendVarint(b, int64(r.A))
		b = binary.AppendVarint(b, int64(r.B))
		b = binary.AppendUvarint(b, uint64(len(r.Refs)))
		for _, ref := range r.Refs {
			b = binary.AppendVarint(b, int64(ref))
		}
	}
	return b, nil
}

// DecodeTrace deserialises a trace, re-binding kernel programs by name from
// the registry (kernels.Default when reg is nil). Corrupt, truncated or
// version-mismatched input returns an error — never a panic and never a
// half-decoded trace — so stores can degrade any failure to a miss. Every
// cost, program, kernel, event and reading reference is bounds-checked
// against its decoded table, and a wait may refer only to an earlier event,
// keeping a hostile or bit-rotted stream unable to crash a replay or to read
// a span the replay has not yet written.
func DecodeTrace(data []byte, reg *kernels.Registry) (*Trace, error) {
	if reg == nil {
		reg = kernels.Default
	}
	d := &traceReader{data: data}
	var magic [4]byte
	copy(magic[:], d.bytes(4))
	if d.err == nil && magic != traceMagic {
		return nil, fmt.Errorf("hw: trace stream has wrong magic %q", magic)
	}
	if v := d.uvarint(); d.err == nil && v != TraceCodecVersion {
		return nil, fmt.Errorf("hw: trace codec version %d, this build reads %d", v, TraceCodecVersion)
	}
	t := &Trace{API: d.api()}
	if kc := d.uvarint(); d.err == nil && kc != uint64(knobCount) {
		return nil, fmt.Errorf("hw: trace recorded with %d driver knobs, this build has %d", kc, knobCount)
	}
	if cf := d.uvarint(); d.err == nil && cf != counterFields {
		return nil, fmt.Errorf("hw: trace recorded with %d counter fields, this build has %d", cf, counterFields)
	}

	t.Costs = make([]Cost, d.count("costs", minCostBytes))
	for i := 0; i < len(t.Costs) && d.err == nil; i++ {
		c := &t.Costs[i]
		c.Fixed = time.Duration(d.varint())
		for k := range c.Counts {
			c.Counts[k] = d.i32()
		}
	}
	progs := make([]*kernels.Program, d.count("programs", 1))
	for i := 0; i < len(progs) && d.err == nil; i++ {
		name := d.str()
		if d.err != nil {
			break
		}
		prog, err := reg.Lookup(name)
		if err != nil {
			return nil, fmt.Errorf("hw: program %d: %w (the program registry no longer has this kernel; the trace is stale)", i, err)
		}
		progs[i] = prog
	}
	t.Kernels = make([]KernelRecord, d.count("kernels", minKernelBytes))
	for i := 0; i < len(t.Kernels) && d.err == nil; i++ {
		k := &t.Kernels[i]
		if p := d.index("program", len(progs)); d.err == nil {
			k.Prog = progs[p]
		}
		d.readCounters(&k.Counters)
	}

	t.Events = make([]TraceEvent, d.count("events", minEventBytes))
	for i := 0; i < len(t.Events) && d.err == nil; i++ {
		ev := &t.Events[i]
		ev.Kind = EventKind(d.u8())
		ev.Queue = d.u8()
		if d.err == nil && ev.Queue >= maxQueueSlots {
			d.fail("event %d uses queue %d beyond the %d-slot bound", i, ev.Queue, maxQueueSlots)
		}
		switch ev.Kind {
		case EvSpend, EvOccupy:
			ev.Cost = d.index("cost", len(t.Costs))
		case EvKernel:
			ev.Cost = d.index("cost", len(t.Costs))
			ev.Kernel = d.index("kernel", len(t.Kernels))
		case EvTransfer:
			ev.Bytes = d.varint()
		case EvWait:
			ev.Ref = d.i32()
			if d.err == nil && (ev.Ref < -1 || int(ev.Ref) >= i) {
				d.fail("wait event %d references event %d, not an earlier one", i, ev.Ref)
			}
		case EvMark:
		default:
			d.fail("event %d has unknown kind %d", i, ev.Kind)
		}
	}

	t.Readings = make([]Reading, d.count("readings", minReadingBytes))
	refs := make([]int32, d.count("reading refs", 1))
	used := 0
	for i := 0; i < len(t.Readings) && d.err == nil; i++ {
		r := &t.Readings[i]
		r.Kind = ReadingKind(d.u8())
		r.A = d.i32()
		r.B = d.i32()
		n := d.count("refs", 1)
		if d.err == nil && n > len(refs)-used {
			d.fail("reading %d claims %d refs, %d of the declared %d are left", i, n, len(refs)-used, len(refs))
		}
		if n > 0 && d.err == nil {
			r.Refs = refs[used : used+n : used+n]
			used += n
			for j := range r.Refs {
				r.Refs[j] = d.i32()
			}
		}
		if d.err != nil {
			break
		}
		if r.Kind > ReadEndDiff {
			return nil, fmt.Errorf("hw: reading %d has unknown kind %d", i, r.Kind)
		}
		if err := validateReadingRefs(r, len(t.Events)); err != nil {
			return nil, fmt.Errorf("hw: reading %d: %w", i, err)
		}
	}
	if d.err == nil && used != len(refs) {
		d.fail("readings hold %d refs, the stream declared %d", used, len(refs))
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("hw: %d trailing bytes after trace stream", len(data)-d.off)
	}
	return t, nil
}

// validateReadingRefs bounds-checks a reading's event references so a replay
// cannot index out of range on a decoded trace. ReadEndDiff allows -1 (time
// zero, an empty queue at record time); the other kinds require real events.
func validateReadingRefs(r *Reading, nEvents int) error {
	inRange := func(ref int32, allowNeg bool) bool {
		if ref == -1 && allowNeg {
			return true
		}
		return ref >= 0 && int(ref) < nEvents
	}
	switch r.Kind {
	case ReadHostMark:
		if !inRange(r.A, false) {
			return fmt.Errorf("host mark references event %d of %d", r.A, nEvents)
		}
	case ReadMarkDiff:
		if !inRange(r.A, false) || !inRange(r.B, false) {
			return fmt.Errorf("mark diff references events %d,%d of %d", r.A, r.B, nEvents)
		}
	case ReadEndDiff:
		if !inRange(r.A, true) || !inRange(r.B, true) {
			return fmt.Errorf("end diff references events %d,%d of %d", r.A, r.B, nEvents)
		}
	case ReadSpanSum:
		for _, ref := range r.Refs {
			if !inRange(ref, false) {
				return fmt.Errorf("span sum references event %d of %d", ref, nEvents)
			}
		}
	}
	return nil
}

// appendString writes a uvarint-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// traceReader is a sticky-error cursor over an encoded stream; after any
// failure every subsequent read is a no-op, and the caller checks err once.
type traceReader struct {
	data []byte
	off  int
	err  error
}

func (d *traceReader) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("hw: "+format, args...)
	}
}

func (d *traceReader) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.data) {
		d.fail("truncated stream: need %d bytes at offset %d of %d", n, d.off, len(d.data))
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *traceReader) u8() byte {
	b := d.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *traceReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *traceReader) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// str reads a uvarint-length-prefixed string.
func (d *traceReader) str() string {
	n := d.count("string", 1)
	b := d.bytes(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// api reads an API name, sharing the string of a known API rather than
// allocating a copy of it.
func (d *traceReader) api() API {
	b := d.bytes(d.count("string", 1))
	for _, api := range AllAPIs() {
		if string(b) == string(api) {
			return api
		}
	}
	return API(b)
}

func (d *traceReader) i32() int32 {
	v := d.varint()
	if d.err == nil && (v < math.MinInt32 || v > math.MaxInt32) {
		d.fail("value %d overflows int32", v)
		return 0
	}
	return int32(v)
}

// count reads the length of a table whose entries take at least minBytes
// bytes each, and sanity-bounds it by the bytes left, so a corrupt stream cannot
// trigger a large allocation before the truncation check.
func (d *traceReader) count(what string, minBytes int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if left := len(d.data) - d.off; v > uint64(left/minBytes) {
		d.fail("%s count %d exceeds what the %d remaining bytes can hold", what, v, left)
		return 0
	}
	return int(v)
}

// index reads an index into a table of n entries, failing when it is out of
// range.
func (d *traceReader) index(what string, n int) uint32 {
	v := d.uvarint()
	if d.err == nil && v >= uint64(n) {
		d.fail("%s index %d at offset %d is out of range of %d", what, v, d.off, n)
		return 0
	}
	return uint32(v)
}

func (d *traceReader) f64() float64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
