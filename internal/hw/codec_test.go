package hw

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"vcomputebench/internal/kernels"
)

// codecTestRegistry holds the programs the synthetic traces below reference.
func codecTestRegistry(t testing.TB) *kernels.Registry {
	t.Helper()
	reg := kernels.NewRegistry()
	for _, name := range []string{"codec_k1", "codec_k2"} {
		if err := reg.Register(&kernels.Program{
			Name:      name,
			LocalSize: kernels.Dim3{X: 64, Y: 1, Z: 1},
			Bindings:  2,
			Fn:        func(wg *kernels.Workgroup) {},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// syntheticTrace builds a trace exercising every event kind, every reading
// kind, knob-tagged, fixed and zero costs, and both registered programs, one
// of them dispatched twice.
func syntheticTrace(t testing.TB, reg *kernels.Registry) *Trace {
	t.Helper()
	k1, err := reg.Lookup("codec_k1")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := reg.Lookup("codec_k2")
	if err != nil {
		t.Fatal(err)
	}
	counters := kernels.Counters{
		Invocations: 1024, Workgroups: 16, ALUOps: 4096,
		GlobalLoads: 2048, GlobalStores: 1024,
		GlobalLoadBytes: 8192, GlobalStoreBytes: 4096,
		LocalOps: 128, LocalBytes: 512, SharedBytesPerGroup: 256,
		Barriers: 16, SampledUsefulBytes: 8192, SampledTransactionBytes: 12288,
	}
	return &Trace{
		API: APIVulkan,
		Costs: []Cost{
			KnobCost(KnobKernelLaunch).Plus(FixedCost(3 * time.Microsecond)),
			KnobCostN(KnobSubmit, 2),
			FixedCost(5 * time.Microsecond),
			{},
		},
		Kernels: []KernelRecord{
			{Prog: k1, Counters: counters},
			{Prog: k2, Counters: counters},
			{Prog: k1, Counters: counters},
		},
		Events: []TraceEvent{
			{Kind: EvSpend, Cost: 0},
			{Kind: EvMark},
			{Kind: EvKernel, Queue: 0, Cost: 1, Kernel: 0},
			{Kind: EvTransfer, Queue: 1, Bytes: 1 << 20},
			{Kind: EvOccupy, Queue: 2, Cost: 2},
			{Kind: EvKernel, Queue: 0, Cost: 3, Kernel: 1},
			{Kind: EvWait, Ref: 5},
			{Kind: EvWait, Ref: -1},
			{Kind: EvMark},
			{Kind: EvKernel, Queue: 1, Cost: 1, Kernel: 2},
		},
		Readings: []Reading{
			{Kind: ReadHostMark, A: 8},
			{Kind: ReadMarkDiff, A: 1, B: 8},
			{Kind: ReadSpanSum, Refs: []int32{2, 5}},
			{Kind: ReadEndDiff, A: -1, B: 5},
		},
	}
}

// codecTestProfile returns a profile able to replay Vulkan traces.
func codecTestProfile() *Profile {
	return &Profile{
		Name: "codec-test", Class: ClassDesktop,
		ComputeUnits: 8, ALUsPerCU: 64, CoreClockMHz: 1000, WarpSize: 32,
		PeakBandwidthGBps: 100, CacheLineBytes: 64,
		DeviceMemBytes: 1 << 30, HostVisibleMemBytes: 1 << 28,
		TransferGBps:            8,
		MaxWorkgroupInvocations: 1024,
		DispatchLatency:         time.Microsecond, TransferLatency: time.Microsecond,
		Drivers: map[API]DriverProfile{
			APIVulkan: {
				Supported:            true,
				KernelLaunchOverhead: 10 * time.Microsecond, SyncLatency: 5 * time.Microsecond,
				SubmitOverhead: 2 * time.Microsecond, CompilerEfficiency: 0.9, MemoryEfficiency: 0.8,
			},
		},
	}
}

// TestTraceCodecRoundTrip pins that decode(encode(t)) reproduces the trace
// exactly: same structure (program pointers re-bound to the same registry
// entries) and bit-identical replay under a profile.
func TestTraceCodecRoundTrip(t *testing.T) {
	reg := codecTestRegistry(t)
	tr := syntheticTrace(t, reg)

	data, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTrace(data, reg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("decoded trace differs:\n  want %+v\n  got  %+v", tr, got)
	}
	// Program pointers must be the registry's entries, not copies: replay
	// depends on registry identity for e.g. LocalMemCandidate handling.
	for i := range tr.Kernels {
		if got.Kernels[i].Prog != tr.Kernels[i].Prog {
			t.Fatalf("decoded kernel %d's program is not the registry entry", i)
		}
	}

	p := codecTestProfile()
	want, err := tr.Replay(p)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.Replay(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Readings {
		w, err := want.Reading(i)
		if err != nil {
			t.Fatal(err)
		}
		h, err := have.Reading(i)
		if err != nil {
			t.Fatal(err)
		}
		if w != h {
			t.Fatalf("reading %d replays to %v on the original and %v on the decoded trace", i, w, h)
		}
	}
}

// replayDecoded replays a decoded trace under the test profile and evaluates
// every reading. Errors are allowed (a corrupted API names no driver); a
// panic fails the calling test.
func replayDecoded(tr *Trace) {
	rp, err := tr.Replay(codecTestProfile())
	if err != nil {
		return
	}
	for i := range tr.Readings {
		_, _ = rp.Reading(i)
	}
}

// TestTraceCodecRejectsCorruption walks every truncation point and a byte
// flip at every offset: the decoder must return an error or succeed — never
// panic — and a full-length unflipped stream must still decode. A flipped
// stream that decodes must also replay, every reading evaluated, without a
// panic.
func TestTraceCodecRejectsCorruption(t *testing.T) {
	reg := codecTestRegistry(t)
	data, err := EncodeTrace(syntheticTrace(t, reg))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if _, err := DecodeTrace(data[:n], reg); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", n, len(data))
		}
	}
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5a
		if tr, err := DecodeTrace(mut, reg); err == nil { // error or not is data-dependent
			replayDecoded(tr)
		}
	}
}

// TestTraceCodecRejectsBadIndices pins the bounds checks of the flat tables:
// an event's cost or kernel index, a kernel's program index, and a reading
// claiming more refs than the stream declared each fail decoding, so a bad
// index can never reach Replay.
func TestTraceCodecRejectsBadIndices(t *testing.T) {
	reg := codecTestRegistry(t)
	k1, err := reg.Lookup("codec_k1")
	if err != nil {
		t.Fatal(err)
	}
	encode := func(tr *Trace) []byte {
		t.Helper()
		data, err := EncodeTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	oneCost := []Cost{FixedCost(time.Microsecond)}
	oneKernel := []KernelRecord{{Prog: k1}}
	cases := map[string][]byte{
		"cost index": encode(&Trace{API: APIVulkan, Costs: oneCost,
			Events: []TraceEvent{{Kind: EvSpend, Cost: 1}}}),
		"kernel index": encode(&Trace{API: APIVulkan, Costs: oneCost, Kernels: oneKernel,
			Events: []TraceEvent{{Kind: EvKernel, Cost: 0, Kernel: 1}}}),
	}

	// The encoder derives a kernel's program index and the declared ref
	// total, so those two are patched into valid streams.
	patch := func(tr *Trace, fromEnd int, want, to byte) []byte {
		t.Helper()
		data := encode(tr)
		if _, err := DecodeTrace(data, reg); err != nil {
			t.Fatalf("the unpatched stream does not decode: %v", err)
		}
		if at := len(data) - fromEnd; data[at] != want {
			t.Fatalf("unexpected layout: byte %d from the end is %d, want %d", fromEnd, data[at], want)
		}
		data[len(data)-fromEnd] = to
		return data
	}
	// With no events or readings the stream ends in the kernel record
	// (program index, counters) and three zero table lengths.
	cases["program index"] = patch(&Trace{API: APIVulkan, Kernels: oneKernel}, 4+8*counterFields, 0, 1)
	// One two-ref reading follows the declared total in 6 bytes.
	cases["reading refs"] = patch(&Trace{API: APIVulkan, Costs: oneCost,
		Events:   []TraceEvent{{Kind: EvOccupy}},
		Readings: []Reading{{Kind: ReadSpanSum, Refs: []int32{0, 0}}}}, 7, 2, 1)

	for name, data := range cases {
		_, err := DecodeTrace(data, reg)
		if err == nil {
			t.Errorf("a stream with an out-of-range %s decoded without error", name)
			continue
		}
		if want := strings.Fields(name)[0]; !strings.Contains(err.Error(), want) {
			t.Errorf("out-of-range %s: error %q does not name the %s", name, err, want)
		}
	}
}

// TestTraceCodecRejectsUnknownProgram pins the stable-identity contract: a
// trace referencing a kernel the registry no longer has fails decoding (the
// store treats that as a miss and re-executes).
func TestTraceCodecRejectsUnknownProgram(t *testing.T) {
	reg := codecTestRegistry(t)
	data, err := EncodeTrace(syntheticTrace(t, reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTrace(data, kernels.NewRegistry()); err == nil {
		t.Fatal("decoding against an empty registry succeeded; programs are not being re-bound")
	}
}

// TestTraceCodecRejectsNilProgram: dispatches without a registry name cannot
// be persisted and must be rejected at encode time.
func TestTraceCodecRejectsNilProgram(t *testing.T) {
	tr := &Trace{API: APIVulkan, Costs: []Cost{{}}, Kernels: []KernelRecord{{}},
		Events: []TraceEvent{{Kind: EvKernel}}}
	if _, err := EncodeTrace(tr); err == nil {
		t.Fatal("encoding a kernel event without a program succeeded")
	}
}
