package shardplane_test

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"graphsketch/internal/graph"
	"graphsketch/internal/obs"
	"graphsketch/internal/shardplane"
	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/testutil/frametest"
)

func mustSpanning(t *testing.T, n int, seed uint64) *sketch.SpanningSketch {
	t.Helper()
	sp, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// testStream builds a deterministic dynamic stream over n vertices with
// churn: a connected base graph plus insert/delete noise.
func testStream(t *testing.T, n int, seed uint64) stream.Stream {
	t.Helper()
	g := graph.MustHypergraph(n, 2)
	for v := 1; v < n; v++ {
		g.MustAddEdge(graph.MustEdge((v-1)/2, v), 1) // binary tree: connected
	}
	churn := graph.MustHypergraph(n, 2)
	for v := 0; v+3 < n; v += 3 {
		churn.MustAddEdge(graph.MustEdge(v, v+3), 1)
	}
	return stream.WithChurn(g, churn, rand.New(rand.NewPCG(seed, 0)))
}

// TestLocalRouteMatchesSerial pins the local plane's core invariant: a
// batch routed over w shards leaves exactly the state of a serial
// UpdateBatch, for every shard count.
func TestLocalRouteMatchesSerial(t *testing.T) {
	const n, seed = 40, 7
	st := testStream(t, n, 11)
	batch := make([]graph.WeightedEdge, 0, len(st))
	for _, u := range st {
		batch = append(batch, graph.WeightedEdge{E: u.Edge, W: int64(u.Op)})
	}

	serial := mustSpanning(t, n, seed)
	if err := serial.UpdateBatch(batch); err != nil {
		t.Fatal(err)
	}
	want := frametest.Of(t, serial)

	for _, shards := range []int{1, 2, 3, 5, 32} {
		sp := mustSpanning(t, n, seed)
		tr := shardplane.NewLocal(sp, shardplane.Options{Shards: shards})
		if tr.Shards() != min(shards, n) {
			t.Fatalf("shards=%d: got %d shards", shards, tr.Shards())
		}
		if err := tr.Route(batch); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !bytes.Equal(frametest.Of(t, sp), want) {
			t.Fatalf("shards=%d: routed state differs from serial", shards)
		}
		if err := tr.Close(); err != nil {
			t.Fatalf("shards=%d: close: %v", shards, err)
		}
		if err := tr.Route(batch); err != shardplane.ErrClosed {
			t.Fatalf("shards=%d: Route after Close: got %v, want ErrClosed", shards, err)
		}
	}
}

// TestRouteZeroAllocs pins the reused dispatch scratch: with obs disabled,
// a steady-state Route (warmed sampler levels, balanced insert/delete
// batch) must not allocate — neither a per-call errs slice and WaitGroup,
// nor anything on the shard side. n = 600 routes a 1 198-update batch:
// Go boxes an int of 256 or more on the heap, so a span attribute built
// from len(batch) would allocate there even with the span off.
func TestRouteZeroAllocs(t *testing.T) {
	for _, n := range []int{16, 600} {
		sp := mustSpanning(t, n, 3)
		tr := shardplane.NewLocal(sp, shardplane.Options{Shards: 4})
		defer tr.Close()

		var batch []graph.WeightedEdge
		for v := 1; v < n; v++ {
			e := graph.MustEdge(0, v)
			batch = append(batch,
				graph.WeightedEdge{E: e, W: 1},
				graph.WeightedEdge{E: e, W: -1})
		}
		// Warm up: materialize every lazily allocated sampler level and
		// the runtime's channel-wait scratch.
		for i := 0; i < 10; i++ {
			if err := tr.Route(batch); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := tr.Route(batch); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("n=%d: Route allocates %.1f objects per run; want 0", n, allocs)
		}
	}
}

// TestShardSkewMetrics checks the skew-detection pair on a pathological
// star graph: every edge is incident to vertex 0, so shard 0 owns every
// edge while the other shards split the far endpoints. The batch also holds
// every edge inside shard 0's range, twice, which only shard 0 applies,
// so the hub does over 30× a spoke's sampler work and its busy time stays
// ahead even when preemption on a small, loaded host lands in the hub's
// favour. The per-shard edge counters must show the exact imbalance and
// shard 0's busy-time gauge must dominate.
func TestShardSkewMetrics(t *testing.T) {
	obs.Enable()
	defer obs.Disable()

	const n, shards = 64, 4
	sp := mustSpanning(t, n, 9)
	tr := shardplane.NewLocal(sp, shardplane.Options{Shards: shards})
	defer tr.Close()

	r := obs.Default()
	edges := make([]*obs.Counter, shards)
	busy := make([]*obs.Gauge, shards)
	edgesBefore := make([]int64, shards)
	busyBefore := make([]float64, shards)
	for i := 0; i < shards; i++ {
		shard := string(rune('0' + i))
		edges[i] = r.Counter("shardplane_shard_edges_total", "", "shard", shard)
		busy[i] = r.Gauge("shardplane_shard_busy_seconds", "", "shard", shard)
		edgesBefore[i] = edges[i].Value()
		busyBefore[i] = busy[i].Value()
	}

	// Star batch: {0, v} for v in the other three shards' ranges [16, 64),
	// 16 edges per spoke, plus every hub-internal edge {u, v} with
	// 0 <= u < v < 16, twice (240 updates). Per batch the hub applies
	// 48 + 2·240 = 528 endpoint updates and each spoke 16.
	var batch []graph.WeightedEdge
	for v := n / shards; v < n; v++ {
		batch = append(batch, graph.WeightedEdge{E: graph.MustEdge(0, v), W: 1})
	}
	star := len(batch)
	for range 2 {
		for u := 0; u < n/shards; u++ {
			for v := u + 1; v < n/shards; v++ {
				batch = append(batch, graph.WeightedEdge{E: graph.MustEdge(u, v), W: 1})
			}
		}
	}
	const reps = 50
	for i := 0; i < reps; i++ {
		if err := tr.Route(batch); err != nil {
			t.Fatal(err)
		}
	}

	hub := edges[0].Value() - edgesBefore[0]
	if want := int64(reps * len(batch)); hub != want {
		t.Fatalf("hub shard owned %d edges, want all %d", hub, want)
	}
	hubBusy := busy[0].Value() - busyBefore[0]
	if hubBusy <= 0 {
		t.Fatal("hub shard busy-time gauge did not advance")
	}
	for i := 1; i < shards; i++ {
		spoke := edges[i].Value() - edgesBefore[i]
		if want := int64(reps * star / (shards - 1)); spoke != want {
			t.Fatalf("spoke shard %d owned %d edges, want %d", i, spoke, want)
		}
		if spokeBusy := busy[i].Value() - busyBefore[i]; spokeBusy >= hubBusy {
			t.Errorf("star skew not visible: shard %d busy %.3gs >= hub busy %.3gs",
				i, spokeBusy, hubBusy)
		}
	}

	if got := r.Histogram("shardplane_route_seconds", "", nil).Count(); got == 0 {
		t.Error("shardplane_route_seconds recorded nothing")
	}
}

// TestSplitBounds pins the canonical partition against the historical
// engine split.
func TestSplitBounds(t *testing.T) {
	for _, tc := range []struct {
		n, shards int
		want      []int
	}{
		{10, 1, []int{0, 10}},
		{10, 3, []int{0, 3, 6, 10}},
		{4, 4, []int{0, 1, 2, 3, 4}},
	} {
		got := shardplane.SplitBounds(tc.n, tc.shards)
		if len(got) != len(tc.want) {
			t.Fatalf("SplitBounds(%d,%d) = %v, want %v", tc.n, tc.shards, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("SplitBounds(%d,%d) = %v, want %v", tc.n, tc.shards, got, tc.want)
			}
		}
	}
}
