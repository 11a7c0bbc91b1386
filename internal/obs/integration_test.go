package obs_test

import (
	"bytes"
	"strings"
	"testing"

	"graphsketch/internal/engine"
	"graphsketch/internal/graph"
	"graphsketch/internal/obs"
	"graphsketch/internal/sketch"

	// Families register from package init; link every instrumented
	// package so the full exposition is visible to this test, as it is to
	// any binary that uses the corresponding sketches.
	_ "graphsketch/internal/commsim"
	_ "graphsketch/internal/core/reconstruct"
	_ "graphsketch/internal/core/vertexconn"
)

// TestMetricFamiliesEndToEnd drives the real ingestion and decode stack
// with collection enabled and asserts that every metric family the
// telemetry layer promises is present in the Prometheus exposition — and
// that the families the workload exercises actually advanced. This is the
// contract a scraper relies on.
func TestMetricFamiliesEndToEnd(t *testing.T) {
	obs.Enable()
	defer obs.Disable()

	const n = 32
	sp, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(sp, engine.Options{Workers: 2})
	defer eng.Close()
	var batch []graph.WeightedEdge
	for v := 1; v < n; v++ {
		batch = append(batch, graph.WeightedEdge{E: graph.MustEdge(v-1, v), W: 1})
	}
	if err := eng.UpdateBatch(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Decode(nil); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	families := map[string]string{
		"shardplane_route_seconds":              "histogram",
		"shardplane_queue_wait_seconds":         "histogram",
		"shardplane_shard_edges_total":          "counter",
		"shardplane_shard_busy_seconds":         "gauge",
		"l0_sample_draws_total":                 "counter",
		"l0_sample_success_total":               "counter",
		"l0_sample_failure_total":               "counter",
		"recovery_onesparse_fp_rejects_total":   "counter",
		"recovery_ssparse_decode_success_total": "counter",
		"recovery_ssparse_decode_failure_total": "counter",
		"sketch_peel_rounds":                    "histogram",
		"sketch_decode_failures_total":          "counter",
		"sketch_spanning_graph_seconds":         "histogram",
		"sketch_peel_round_seconds":             "histogram",
		"vertexconn_forest_failures_total":      "counter",
		"sketch_skeleton_seconds":               "histogram",
		"reconstruct_peel_rounds":               "histogram",
		"commsim_messages_total":                "counter",
	}
	for name, kind := range families {
		if !strings.Contains(out, "# TYPE "+name+" "+kind+"\n") {
			t.Errorf("missing family %s (%s) in /metrics output", name, kind)
		}
	}

	// The path workload must have moved the exercised families.
	r := obs.Default()
	if v := r.Counter("shardplane_shard_edges_total", "", "shard", "0").Value(); v == 0 {
		t.Error("shardplane_shard_edges_total{shard=\"0\"} did not advance")
	}
	if c := r.Histogram("shardplane_route_seconds", "", nil).Count(); c == 0 {
		t.Error("shardplane_route_seconds recorded no batches")
	}
	if v := r.Counter("l0_sample_success_total", "").Value(); v == 0 {
		t.Error("l0_sample_success_total did not advance during the decode")
	}
	if v := r.Counter("recovery_ssparse_decode_success_total", "").Value(); v == 0 {
		t.Error("recovery_ssparse_decode_success_total did not advance")
	}
	if c := r.Histogram("sketch_peel_rounds", "", nil).Count(); c == 0 {
		t.Error("sketch_peel_rounds recorded no decodes")
	}
	if c := r.Histogram("sketch_peel_round_seconds", "", nil).Count(); c == 0 {
		t.Error("sketch_peel_round_seconds recorded no peel round")
	}

	// Histogram exposition shape: cumulative buckets ending at +Inf equal
	// to _count.
	if !strings.Contains(out, `shardplane_route_seconds_bucket{le="+Inf"}`) {
		t.Error("route latency histogram missing +Inf bucket")
	}
	if !strings.Contains(out, "shardplane_route_seconds_count") {
		t.Error("route latency histogram missing _count")
	}
}
