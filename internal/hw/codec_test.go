package hw

import (
	"reflect"
	"testing"
	"time"

	"vcomputebench/internal/kernels"
)

// codecTestRegistry holds the programs the synthetic traces below reference.
func codecTestRegistry(t *testing.T) *kernels.Registry {
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
// kind, knob-tagged and fixed costs, and both registered programs.
func syntheticTrace(t *testing.T, reg *kernels.Registry) *Trace {
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
		Events: []TraceEvent{
			{Kind: EvSpend, Cost: KnobCost(KnobKernelLaunch).Plus(FixedCost(3 * time.Microsecond))},
			{Kind: EvMark},
			{Kind: EvKernel, Queue: 0, Prog: k1, Counters: counters, Cost: KnobCostN(KnobSubmit, 2)},
			{Kind: EvTransfer, Queue: 1, Bytes: 1 << 20},
			{Kind: EvOccupy, Queue: 2, Cost: FixedCost(5 * time.Microsecond)},
			{Kind: EvKernel, Queue: 0, Prog: k2, Counters: counters, Cost: Cost{}},
			{Kind: EvWait, Ref: 5},
			{Kind: EvWait, Ref: -1},
			{Kind: EvMark},
		},
		Readings: []Reading{
			{Kind: ReadHostMark, A: 8, Value: 90 * time.Microsecond},
			{Kind: ReadMarkDiff, A: 1, B: 8, Value: 80 * time.Microsecond},
			{Kind: ReadSpanSum, Refs: []int32{2, 5}, Value: 60 * time.Microsecond},
			{Kind: ReadEndDiff, A: -1, B: 5, Value: 70 * time.Microsecond},
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
	if got.Events[2].Prog != tr.Events[2].Prog || got.Events[5].Prog != tr.Events[5].Prog {
		t.Fatal("decoded programs are not the registry entries")
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

// TestTraceCodecRejectsCorruption walks every truncation point and a byte
// flip at every offset: the decoder must return an error or succeed — never
// panic — and a full-length unflipped stream must still decode.
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
		_, _ = DecodeTrace(mut, reg) // must not panic; error or not is data-dependent
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

// TestTraceCodecRejectsNilProgram: kernel events without a registry name
// cannot be persisted and must be rejected at encode time.
func TestTraceCodecRejectsNilProgram(t *testing.T) {
	tr := &Trace{API: APIVulkan, Events: []TraceEvent{{Kind: EvKernel}}}
	if _, err := EncodeTrace(tr); err == nil {
		t.Fatal("encoding a kernel event without a program succeeded")
	}
}
