package vcomputebench_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"vcomputebench/internal/core"
	"vcomputebench/internal/expected"
	"vcomputebench/internal/experiments"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/report"
)

// updateGoldens rewrites testdata/golden/<id>.json from the current run
// instead of comparing against it. Use after an intentional output change
// (new calibration values, a new workload in the extensions experiment):
//
//	go test -run TestPaperFidelity -update-goldens
var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/golden document snapshots from this run")

// TestPaperFidelity runs every experiment and checks two contracts. First,
// each document must be byte-identical to its committed golden under
// testdata/golden — the simulator is deterministic, so any diff is a real
// output change that must be reviewed (and re-recorded with -update-goldens).
// Second, experiments with recorded expectations must reproduce the paper's
// published metrics within the documented per-metric tolerances and the Table
// IV exclusions. It is the test-suite twin of `vcbench -check all`: any
// change that drifts the simulator away from the published results fails
// tier-1 CI with the offending deltas.
//
// The experiments share one snapshot cache, as `vcbench -run/-check all`
// does: cells that appear in several figures execute once and replay
// elsewhere, so this test also pins that replay moves no published metric.
// A warm pass then runs every experiment again over that cache: it must
// execute nothing and reproduce every golden, so an experiment that reaches
// the simulator around the runner fails here.
func TestPaperFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full experiments; skipped with -short")
	}
	if err := expected.Validate(experiments.IDs()); err != nil {
		t.Fatalf("expectations out of sync with the registry: %v", err)
	}
	opts := experiments.Options{Repetitions: 1, Seed: 42, Cache: core.NewSnapshotCache(0)}
	for _, e := range experiments.All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			doc, err := e.Run(opts)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			compareGolden(t, e.ID, doc)
			if !expected.HasExpectations(e.ID) {
				return
			}
			checks := expected.CompareDocument(e.ID, doc)
			if len(checks) == 0 {
				t.Fatalf("%s: expectations recorded but no checks produced", e.ID)
			}
			for _, c := range checks {
				if c.Pass {
					continue
				}
				msg := c.String()
				if c.Note != "" {
					msg += "\n    note: " + c.Note
				}
				t.Error(msg)
			}
		})
	}

	t.Run("warm", func(t *testing.T) {
		misses := opts.Cache.Stats().Misses
		executed, _ := hw.DispatchCounts()
		for _, e := range experiments.All() {
			doc, err := e.Run(opts)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			compareGolden(t, e.ID, doc)
		}
		if n := opts.Cache.Stats().Misses - misses; n != 0 {
			t.Errorf("the warm pass missed the store %d times, want 0", n)
		}
		if n, _ := hw.DispatchCounts(); n != executed {
			t.Errorf("the warm pass executed %d dispatches, want 0", n-executed)
		}
	})
}

// compareGolden checks the document's JSON encoding against the committed
// snapshot (or rewrites it under -update-goldens). The byte-level comparison
// is the refactor-neutrality guard: registry or reporting changes that claim
// to preserve output must leave every golden untouched.
func compareGolden(t *testing.T, id string, doc *report.Document) {
	t.Helper()
	data, err := report.EncodeJSON([]*report.Document{doc})
	if err != nil {
		t.Fatalf("%s: encoding document: %v", id, err)
	}
	path := filepath.Join("testdata", "golden", id+".json")
	if *updateGoldens {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: no golden snapshot (record one with go test -run TestPaperFidelity -update-goldens): %v", id, err)
	}
	if !bytes.Equal(want, data) {
		t.Errorf("%s: document differs from golden %s; if the change is intentional, re-record with -update-goldens", id, path)
	}
}

// benchExperiment runs one paper experiment per benchmark iteration, so
// `go test -bench` regenerates every table and figure. Run with
// -benchtime=1x for a single regeneration pass.
func benchExperiment(b *testing.B, id string) {
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatalf("experiment %s: %v", id, err)
	}
	opts := experiments.Options{Repetitions: 1, Seed: 42}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, err := exp.Run(opts)
		if err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
		if len(doc.Tables) == 0 && len(doc.Series) == 0 {
			b.Fatalf("experiment %s produced no output", id)
		}
	}
}

// Table I: the benchmark registry.
func BenchmarkTable1Registry(b *testing.B) { benchExperiment(b, "table1") }

// Table II: desktop experimental setup.
func BenchmarkTable2DesktopSetup(b *testing.B) { benchExperiment(b, "table2") }

// Table III: mobile experimental setup.
func BenchmarkTable3MobileSetup(b *testing.B) { benchExperiment(b, "table3") }

// Figure 1a: memory bandwidth vs stride on the GTX 1050 Ti (Vulkan vs CUDA).
func BenchmarkFig1aBandwidthGTX1050Ti(b *testing.B) { benchExperiment(b, "fig1a") }

// Figure 1b: memory bandwidth vs stride on the RX 560 (Vulkan vs OpenCL).
func BenchmarkFig1bBandwidthRX560(b *testing.B) { benchExperiment(b, "fig1b") }

// Figure 2a: Rodinia speedups on the GTX 1050 Ti.
func BenchmarkFig2aDesktopNVIDIA(b *testing.B) { benchExperiment(b, "fig2a") }

// Figure 2b: Rodinia speedups on the RX 560.
func BenchmarkFig2bDesktopAMD(b *testing.B) { benchExperiment(b, "fig2b") }

// Figure 3a: memory bandwidth vs stride on the Nexus Player.
func BenchmarkFig3aBandwidthNexus(b *testing.B) { benchExperiment(b, "fig3a") }

// Figure 3b: memory bandwidth vs stride on the Snapdragon 625.
func BenchmarkFig3bBandwidthSnapdragon(b *testing.B) { benchExperiment(b, "fig3b") }

// Figure 4a: mobile speedups on the Nexus Player (PowerVR G6430).
func BenchmarkFig4aMobileNexus(b *testing.B) { benchExperiment(b, "fig4a") }

// Figure 4b: mobile speedups on the Snapdragon 625 (Adreno 506).
func BenchmarkFig4bMobileSnapdragon(b *testing.B) { benchExperiment(b, "fig4b") }

// Headline geometric-mean speedups (abstract / §VII).
func BenchmarkSummaryGeomeans(b *testing.B) { benchExperiment(b, "summary") }

// Ablation of the single-command-buffer optimisation (§IV-C / §VI-B).
func BenchmarkAblationCommandBuffer(b *testing.B) { benchExperiment(b, "ablation-cmdbuf") }

// Ablation of the push-constant driver quirk (§V-B1).
func BenchmarkAblationPushConstants(b *testing.B) { benchExperiment(b, "ablation-push") }
