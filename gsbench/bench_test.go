package main

import (
	"path/filepath"
	"testing"
)

// shortRun runs a few windows of a workload with one setup and one
// checkpoint repetition.
func shortRun(t *testing.T, name string, seed uint64, traced bool) *outcome {
	t.Helper()
	sp, err := specByName(name)
	if err != nil {
		t.Fatal(err)
	}
	short := *sp
	short.segments, short.ckptReps, short.restoreReps = 2, 1, 1
	o, err := runOnce(&short, seed, 4, traced, filepath.Join(t.TempDir(), "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if o.t.failed != 0 {
		t.Fatalf("%s: %d of %d operations failed; first: %s", name, o.t.failed, o.t.attempted, o.t.firstErr)
	}
	return o
}

// TestShortRunsExact checks that each workload's short mode finishes with
// zero failed operations and that its exact metrics repeat for one seed.
func TestShortRunsExact(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			a := shortRun(t, sp.name, 7, false)
			b := shortRun(t, sp.name, 7, false)
			for _, k := range []string{"state_words_per_vertex", "ckpt_bytes_per_vertex"} {
				if a.metrics[k] != b.metrics[k] {
					t.Errorf("%s differs across runs of one seed: %v vs %v", k, a.metrics[k], b.metrics[k])
				}
			}
			if a.t.attempted != b.t.attempted {
				t.Errorf("attempted differs across runs of one seed: %d vs %d", a.t.attempted, b.t.attempted)
			}
			for k, m := range a.metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", k, m.Value)
				}
			}
		})
	}
}

// TestShortTracedExact checks the traced run: zero failures, every
// per-layer metric printed, and the exact per-layer counts repeating for
// one seed.
func TestShortTracedExact(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			a := shortRun(t, sp.name, 9, true)
			b := shortRun(t, sp.name, 9, true)
			if len(a.metrics) != len(layerMetrics) {
				t.Errorf("traced run printed %d metrics, want %d", len(a.metrics), len(layerMetrics))
			}
			for _, k := range []string{"hybrid.spilled_vertices", "hybrid.exact_fraction", "l0.updates_per_edge", "oracle.rebuilds_per_window", "shardplane.gather_bytes"} {
				if a.metrics[k] != b.metrics[k] {
					t.Errorf("%s differs across runs of one seed: %v vs %v", k, a.metrics[k], b.metrics[k])
				}
			}
			if sp.kind == "hybrid" && a.metrics["hybrid.spilled_vertices"].Value == 0 {
				t.Error("hybrid-sparse spilled no vertices; the workload should overflow some buffers")
			}
			for _, lm := range layerMetrics {
				if lm.name == "shardplane.gather_ms" && sp.kind != "tcp" {
					continue // the local plane's gather is the identity, reported as 0
				}
				if lm.unit == "ms" || lm.unit == "ns" {
					if v := a.metrics[lm.name].Value; !(v > 0) {
						t.Errorf("per-layer time %s = %v, want > 0", lm.name, v)
					}
				}
			}
		})
	}
}

func TestQuantileMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for q, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}
