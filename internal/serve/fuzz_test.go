package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"sort"
	"testing"

	"vcomputebench/internal/platforms"
)

// FuzzSimulateRequest feeds generated bodies through the handler's decode
// and resolve. Neither panics. A request that resolves keeps its flight key
// when its driver_knobs are encoded in sorted and in reverse name order, so
// identical what-ifs share one flight. Its platform keeps the unmodified
// platform's execution fingerprint: every knob a request may set is
// timing-only (knobSetters), which is what lets a what-if answer replay the
// stored snapshot instead of executing.
func FuzzSimulateRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(io.NopCloser(bytes.NewReader(body)))
		if err != nil {
			return
		}
		cell, err := resolve(req)
		if err != nil {
			return
		}
		for _, reverse := range []bool{false, true} {
			again, err := decodeRequest(io.NopCloser(bytes.NewReader(encodeRequest(t, req, reverse))))
			if err != nil {
				t.Fatalf("decoding the re-encoded request: %v", err)
			}
			recell, err := resolve(again)
			if err != nil {
				t.Fatalf("resolving the re-encoded request: %v", err)
			}
			if recell.key != cell.key {
				t.Fatalf("re-encoding the knobs (reverse %t) moved the flight key\n  from %q\n  to   %q", reverse, cell.key, recell.key)
			}
		}
		base, err := platforms.ByID(req.Platform)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cell.p.Profile.ExecutionFingerprint(), base.Profile.ExecutionFingerprint(); got != want {
			t.Fatalf("knobs %v changed the execution fingerprint\n  from %s\n  to   %s", req.DriverKnobs, want, got)
		}
	})
}

// encodeRequest spells the request as JSON with its driver_knobs in sorted
// name order, or in reverse order; json.Marshal alone always sorts them.
func encodeRequest(t *testing.T, req *SimulateRequest, reverse bool) []byte {
	t.Helper()
	head := *req
	head.DriverKnobs = nil
	b, err := json.Marshal(&head)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.DriverKnobs) == 0 {
		return b
	}
	names := make([]string, 0, len(req.DriverKnobs))
	for name := range req.DriverKnobs {
		names = append(names, name)
	}
	sort.Strings(names)
	if reverse {
		sort.Sort(sort.Reverse(sort.StringSlice(names)))
	}
	b = append(b[:len(b)-1], `,"driver_knobs":{`...)
	for i, name := range names {
		if i > 0 {
			b = append(b, ',')
		}
		k, err := json.Marshal(name)
		if err != nil {
			t.Fatal(err)
		}
		v, err := json.Marshal(req.DriverKnobs[name])
		if err != nil {
			t.Fatal(err)
		}
		b = append(append(append(b, k...), ':'), v...)
	}
	return append(b, "}}"...)
}
