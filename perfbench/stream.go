package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// cell is one measurement cell: the identity fields of a golden result and of
// a /v1/simulate request.
type cell struct {
	Platform  string `json:"platform"`
	Benchmark string `json:"benchmark"`
	API       string `json:"api"`
	Workload  string `json:"workload"`
}

// catalog is every cell the golden documents record, sorted so that a seed
// draws the same cells on every machine, with each cell's golden result as
// compact JSON.
type catalog struct {
	cells  []cell
	golden map[cell][]byte
}

// loadCatalog reads the per-cell results of every golden document. A cell
// recorded by several documents must carry the same result in each.
func loadCatalog(goldenDir string) (*catalog, error) {
	files, err := filepath.Glob(filepath.Join(goldenDir, "*.json"))
	if err != nil {
		return nil, err
	}
	cat := &catalog{golden: map[cell][]byte{}}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var env struct {
			Documents []struct {
				Results []json.RawMessage `json:"results"`
			} `json:"documents"`
		}
		if err := json.Unmarshal(data, &env); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, d := range env.Documents {
			for _, raw := range d.Results {
				var c cell
				if err := json.Unmarshal(raw, &c); err != nil {
					return nil, fmt.Errorf("%s: %w", f, err)
				}
				var res bytes.Buffer
				if err := json.Compact(&res, raw); err != nil {
					return nil, fmt.Errorf("%s: %w", f, err)
				}
				if prev, ok := cat.golden[c]; ok && !bytes.Equal(prev, res.Bytes()) {
					return nil, fmt.Errorf("%s: cell %+v has two different golden results", f, c)
				}
				cat.golden[c] = res.Bytes()
			}
		}
	}
	if len(cat.golden) == 0 {
		return nil, fmt.Errorf("no golden results under %s", goldenDir)
	}
	for c := range cat.golden {
		cat.cells = append(cat.cells, c)
	}
	sort.Slice(cat.cells, func(i, j int) bool {
		a, b := cat.cells[i], cat.cells[j]
		return a.Platform+"|"+a.Benchmark+"|"+a.API+"|"+a.Workload < b.Platform+"|"+b.Benchmark+"|"+b.API+"|"+b.Workload
	})
	return cat, nil
}

// request is one /v1/simulate request of the serve stream.
type request struct {
	cell
	Knobs map[string]float64 `json:"driver_knobs,omitempty"`
	body  []byte             // the encoded request; also its identity
}

// Override values a what-if request draws from. Knobs named *_ns are
// durations; the others are efficiencies and factors that driver validation
// bounds to (0,1].
var (
	nsValues    = []float64{0, 1e3, 1e4, 1e5}
	ratioValues = []float64{0.25, 0.5, 0.75, 1}
)

// makeStream returns passes × len(catalog) requests: the catalog in a seeded
// random order, once per pass, so every seed draws each cell equally often
// and streams differ in order and knobs, not in their mix of short and long
// traces. Half of the requests, chosen by the seed, carry one timing-only
// override of a knob named in knobs.
func makeStream(cat *catalog, knobs []string, seed int64, passes int) []request {
	rng := rand.New(rand.NewSource(seed))
	var cells []cell
	for p := 0; p < passes; p++ {
		for _, i := range rng.Perm(len(cat.cells)) {
			cells = append(cells, cat.cells[i])
		}
	}
	knobbed := make([]bool, len(cells))
	for _, i := range rng.Perm(len(cells))[:len(cells)/2] {
		knobbed[i] = true
	}
	reqs := make([]request, len(cells))
	for i := range reqs {
		r := request{cell: cells[i]}
		if knobbed[i] {
			name := knobs[rng.Intn(len(knobs))]
			vals := ratioValues
			if strings.HasSuffix(name, "_ns") {
				vals = nsValues
			}
			r.Knobs = map[string]float64{name: vals[rng.Intn(len(vals))]}
		}
		body, err := json.Marshal(r)
		if err != nil {
			panic(err) // strings and finite floats always encode
		}
		r.body = body
		reqs[i] = r
	}
	return reqs
}
