package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"vcomputebench/internal/faults"
	"vcomputebench/internal/serve"
)

func testCatalog(t *testing.T) *catalog {
	t.Helper()
	cat, err := loadCatalog("../testdata/golden")
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestStreamIsSeeded(t *testing.T) {
	cat := testCatalog(t)
	a := makeStream(cat, serve.KnobNames(), 7, 2)
	b := makeStream(cat, serve.KnobNames(), 7, 2)
	c := makeStream(cat, serve.KnobNames(), 8, 2)
	if len(a) != 2*len(cat.cells) {
		t.Fatalf("%d requests for 2 passes over %d cells", len(a), len(cat.cells))
	}
	same, knobbed := 0, 0
	drawn := map[cell]int{}
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("request %d differs under one seed:\n%s\n%s", i, a[i].body, b[i].body)
		}
		if bytes.Equal(a[i].body, c[i].body) {
			same++
		}
		if len(a[i].Knobs) > 0 {
			knobbed++
		}
		drawn[a[i].cell]++
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 drew the same stream")
	}
	if knobbed != len(a)/2 {
		t.Fatalf("%d of %d requests carry a knob override, want half", knobbed, len(a))
	}
	for _, c := range cat.cells {
		if drawn[c] != 2 {
			t.Fatalf("cell %+v drawn %d times in 2 passes", c, drawn[c])
		}
	}
}

// fakeServe answers /v1/simulate with the golden result of the requested
// cell, as a warm vcbench serve does for a knob-free request; wrong answers
// one cell with another cell's result, and unstable makes every answer
// unique.
func fakeServe(cat *catalog, wrong *cell, unstable bool) http.Handler {
	var n atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res := cat.golden[req.cell]
		if wrong != nil && req.cell == *wrong {
			res = cat.golden[cat.cells[0]]
		}
		fmt.Fprintf(w, `{"documents":[{"results":[%s]}]`, res)
		if unstable {
			fmt.Fprintf(w, `,"n":%d`, n.Add(1))
		}
		fmt.Fprint(w, "}")
	})
}

func TestLoadVerifiesAnswers(t *testing.T) {
	cat := testCatalog(t)
	stream := makeStream(cat, serve.KnobNames(), 3, 2)
	var knobFree *cell // a cell the stream asks for without knobs, so its answer is checked against the golden
	for i := len(stream) - 1; knobFree == nil; i-- {
		if len(stream[i].Knobs) == 0 && stream[i].cell != cat.cells[0] {
			knobFree = &stream[i].cell
		}
	}
	for _, tc := range []struct {
		name     string
		wrong    *cell
		unstable bool
		fails    bool
	}{
		{name: "faithful"},
		{name: "wrong-result", wrong: knobFree, fails: true},
		{name: "unstable", unstable: true, fails: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(fakeServe(cat, tc.wrong, tc.unstable))
			defer srv.Close()
			l := newLoad(cat, stream, 4)
			o, n := newOutcome(), 2*len(stream) // two laps
			answers, bodies := l.load(srv.URL, time.Now().Add(time.Minute), n)
			ok := l.verify(o, answers, bodies)
			if o.attempted != n || ok+o.failed != n {
				t.Fatalf("%d attempted, %d ok, %d failed for %d requests", o.attempted, ok, o.failed, n)
			}
			if fails := o.failed > 0; fails != tc.fails {
				t.Fatalf("%d of %d requests failed verification (%v), want failures: %v", o.failed, n, o.problems, tc.fails)
			}
		})
	}
}

// failFirstDispatch faults every execution at its first dispatch, so a
// request that resolves costs only input set-up and answers 5xx, never 400.
type failFirstDispatch struct{}

func (failFirstDispatch) Plan(site faults.Site) *faults.Plan {
	return &faults.Plan{Class: faults.DeviceLost, Site: site}
}

func TestStreamResolves(t *testing.T) {
	cat := testCatalog(t)
	srv, err := serve.New(serve.Config{Repetitions: 1, Seed: 42, CodeVersion: "test", Faults: failFirstDispatch{}})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	seen := map[string]bool{}
	for _, r := range makeStream(cat, serve.KnobNames(), 1, 1) {
		if seen[string(r.body)] {
			continue
		}
		seen[string(r.body)] = true
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(r.body)))
		if w.Code == http.StatusBadRequest {
			t.Fatalf("%s: 400 %s", r.body, w.Body)
		}
	}
}
