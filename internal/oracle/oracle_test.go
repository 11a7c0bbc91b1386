package oracle

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"graphsketch"
	"graphsketch/internal/core/vertexconn"
	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/obs"
	"graphsketch/internal/sketch"
	"graphsketch/internal/workload"
)

func TestConnectedMatchesGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 4; trial++ {
		h := workload.ErdosRenyi(rng, 12, 0.15+0.1*float64(trial))
		sp := sketch.NewSpanning(uint64(trial), h.Domain(), sketch.SpanningConfig{})
		orc := For(sp)
		if err := orc.Update(graph.MustEdge(0, 1), 1); err != nil {
			t.Fatal(err)
		}
		if err := orc.Update(graph.MustEdge(0, 1), -1); err != nil {
			t.Fatal(err)
		}
		if err := orc.UpdateBatch(h.WeightedEdges()); err != nil {
			t.Fatal(err)
		}
		truth := graphalg.ComponentsOf(h)
		for u := 0; u < h.N(); u++ {
			for v := 0; v < h.N(); v++ {
				got, err := orc.Connected(u, v)
				if err != nil {
					t.Fatal(err)
				}
				if got != truth.Same(u, v) {
					t.Fatalf("trial %d: Connected(%d,%d) = %v, truth %v", trial, u, v, got, truth.Same(u, v))
				}
			}
		}
		comps, err := orc.Components()
		if err != nil {
			t.Fatal(err)
		}
		if comps != truth.Components() {
			t.Fatalf("trial %d: %d components, want %d", trial, comps, truth.Components())
		}
		// The n² queries above triggered exactly one decode.
		if st := orc.CacheStats(); st.Rebuilds != 1 {
			t.Fatalf("trial %d: %d rebuilds for a query burst, want 1", trial, st.Rebuilds)
		}
	}
}

func TestVertexCutQueries(t *testing.T) {
	g, err := workload.SharedCliques(6, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := vertexconn.New(vertexconn.Params{N: g.N(), K: 2, Subgraphs: 96, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	orc := For(vc)
	if err := orc.UpdateBatch(g.WeightedEdges()); err != nil {
		t.Fatal(err)
	}
	disc, err := orc.DisconnectedBy([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !disc {
		t.Fatal("removing the shared pair must disconnect the cliques")
	}
	disc, err = orc.DisconnectedBy([]int{3, 3, 3}) // duplicates collapse to one vertex
	if err != nil {
		t.Fatal(err)
	}
	if disc {
		t.Fatal("removing one non-bridge vertex must not disconnect")
	}
	if _, err := orc.DisconnectedBy([]int{2, 3, 4}); !errors.Is(err, ErrRemoveTooLarge) {
		t.Fatalf("|S| > K: got %v, want ErrRemoveTooLarge", err)
	}
	if _, err := orc.DisconnectedBy([]int{0, g.N()}); !errors.Is(err, graphsketch.ErrVertexRange) {
		t.Fatalf("out of range: got %v, want ErrVertexRange", err)
	}
	if _, err := orc.Connected(-1, 0); !errors.Is(err, graphsketch.ErrVertexRange) {
		t.Fatalf("negative vertex: got %v, want ErrVertexRange", err)
	}
}

// TestEpochNeverServesPreMutationSnapshot is the invalidation property
// test: after every mutation through the oracle, the very next query must
// reflect the post-mutation graph — a stale (pre-mutation) snapshot being
// served would flip the connectivity answer on this workload.
func TestEpochNeverServesPreMutationSnapshot(t *testing.T) {
	const n = 10
	path := graph.NewGraph(n)
	for i := 0; i < n-1; i++ {
		path.AddSimple(i, i+1)
	}
	sp := sketch.NewSpanning(3, path.Domain(), sketch.SpanningConfig{})
	orc := For(sp)
	if err := orc.UpdateBatch(path.WeightedEdges()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	cut := -1 // index of the currently deleted path edge, -1 = none
	for step := 0; step < 40; step++ {
		epoch := orc.Epoch()
		if cut < 0 {
			cut = rng.IntN(n - 1)
			if err := orc.Update(graph.MustEdge(cut, cut+1), -1); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := orc.Update(graph.MustEdge(cut, cut+1), 1); err != nil {
				t.Fatal(err)
			}
			cut = -1
		}
		if orc.Epoch() != epoch+1 {
			t.Fatalf("step %d: epoch %d after mutation, want %d", step, orc.Epoch(), epoch+1)
		}
		got, err := orc.Connected(0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		if want := cut < 0; got != want {
			t.Fatalf("step %d: Connected(0,%d) = %v, want %v — stale snapshot served", step, n-1, got, want)
		}
	}
}

// TestSingleFlightRebuild hammers a dirty oracle with concurrent queriers
// and asserts exactly one decode ran: everyone else waited and served the
// snapshot the winner published.
func TestSingleFlightRebuild(t *testing.T) {
	h := workload.Cycle(16)
	var decodes atomic.Int64
	sp := sketch.NewSpanning(5, h.Domain(), sketch.SpanningConfig{})
	orc, err := New(Config{
		Sketch: sp,
		N:      h.N(),
		Decode: func(*obs.Span) (*graph.Hypergraph, error) {
			decodes.Add(1)
			return sp.Decode(nil)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := orc.UpdateBatch(h.WeightedEdges()); err != nil {
		t.Fatal(err)
	}
	const queriers = 16
	var wg sync.WaitGroup
	errs := make([]error, queriers)
	for i := 0; i < queriers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ok, err := orc.Connected(i%h.N(), (i+3)%h.N())
			if err == nil && !ok {
				err = fmt.Errorf("cycle pair (%d,%d) reported disconnected", i%h.N(), (i+3)%h.N())
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := decodes.Load(); got != 1 {
		t.Fatalf("%d decodes for one dirty epoch, want 1 (single-flight)", got)
	}
	if st := orc.CacheStats(); st.Rebuilds != 1 {
		t.Fatalf("CacheStats.Rebuilds = %d, want 1", st.Rebuilds)
	}
}

// TestConcurrentQueryMutationStress races Connected callers against
// UpdateBatch and Merge through the same oracle; run under -race this is
// the concurrency-soundness check for the lock-free fast path.
func TestConcurrentQueryMutationStress(t *testing.T) {
	h := workload.Cycle(12)
	dom := h.Domain()
	sp := sketch.NewSpanning(11, dom, sketch.SpanningConfig{})
	orc := For(sp)
	if err := orc.UpdateBatch(h.WeightedEdges()); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var queryErr atomic.Pointer[error]
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 77))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Connectivity flips under the churn below, so only the
				// error (and the race detector) is asserted here.
				if _, err := orc.Connected(rng.IntN(h.N()), rng.IntN(h.N())); err != nil {
					queryErr.Store(&err)
					return
				}
			}
		}(g)
	}
	// Churn: repeatedly delete and re-insert a batch, and merge in a
	// same-seed delta sketch holding one extra edge, then retract it.
	chord := graph.MustEdge(0, 6)
	batch := []graph.WeightedEdge{{E: graph.MustEdge(2, 3), W: -1}, {E: graph.MustEdge(2, 3), W: 1}}
	for i := 0; i < 200; i++ {
		if err := orc.UpdateBatch(batch); err != nil {
			t.Fatal(err)
		}
		delta := sketch.NewSpanning(11, dom, sketch.SpanningConfig{})
		if err := delta.Update(chord, 1); err != nil {
			t.Fatal(err)
		}
		if err := orc.Merge(delta); err != nil {
			t.Fatal(err)
		}
		if err := orc.Update(chord, -1); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if p := queryErr.Load(); p != nil {
		t.Fatal(*p)
	}
	// The stream is net-zero churn: the cycle must still be intact.
	ok, err := orc.Connected(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("cycle lost connectivity after net-zero churn")
	}
}

func TestDecodeFailureBranding(t *testing.T) {
	h := workload.Cycle(6)
	sp := sketch.NewSpanning(1, h.Domain(), sketch.SpanningConfig{})
	exhausted := fmt.Errorf("layer: %w", sketch.ErrDecodeFailed)
	fail := errors.New("programmer error")
	mode := &exhausted
	orc, err := New(Config{
		Sketch: sp,
		N:      h.N(),
		Decode: func(*obs.Span) (*graph.Hypergraph, error) { return nil, *mode },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustion (sketch.ErrDecodeFailed under the wrap) is operational:
	// branded ErrStaleDecode, original cause preserved.
	_, err = orc.Connected(0, 1)
	if !errors.Is(err, graphsketch.ErrStaleDecode) || !errors.Is(err, sketch.ErrDecodeFailed) {
		t.Fatalf("exhausted decode: got %v, want ErrStaleDecode wrapping ErrDecodeFailed", err)
	}
	// Anything else passes through unbranded.
	mode = &fail
	_, err = orc.Connected(0, 1)
	if errors.Is(err, graphsketch.ErrStaleDecode) || !errors.Is(err, fail) {
		t.Fatalf("programmer error: got %v, want the raw cause without ErrStaleDecode", err)
	}
	if st := orc.CacheStats(); st.Failures != 2 {
		t.Fatalf("Failures = %d, want 2", st.Failures)
	}
	// A failed rebuild publishes nothing: the oracle retries (and keeps
	// failing here) instead of serving a stale snapshot.
	if st := orc.CacheStats(); st.Hits != 0 {
		t.Fatalf("Hits = %d after only failed rebuilds, want 0", st.Hits)
	}
}

func TestSketchPassthroughAndInvalidate(t *testing.T) {
	h := workload.Cycle(8)
	sp := sketch.NewSpanning(21, h.Domain(), sketch.SpanningConfig{})
	orc := For(sp)
	if orc.Words() != sp.Words() || orc.NumVertices() != h.N() {
		t.Fatal("pass-through accessors disagree with the wrapped sketch")
	}
	if err := orc.UpdateBatch(h.WeightedEdges()); err != nil {
		t.Fatal(err)
	}
	// Oracle-to-oracle Merge: adding the state into a fresh
	// same-construction oracle is a mutation and advances its epoch.
	sp2 := sketch.NewSpanning(21, h.Domain(), sketch.SpanningConfig{})
	orc2 := For(sp2)
	if err := orc2.Merge(orc); err != nil {
		t.Fatal(err)
	}
	if orc2.Epoch() == 0 {
		t.Fatal("Merge did not advance the epoch")
	}

	// Out-of-band mutation + Invalidate: the next query must rebuild.
	ok, err := orc.Connected(0, 4)
	if err != nil || !ok {
		t.Fatalf("cycle pair: %v %v", ok, err)
	}
	for _, e := range h.Edges() {
		if err := sp.Update(e, -1); err != nil { // bypasses the oracle
			t.Fatal(err)
		}
	}
	orc.Invalidate()
	ok, err = orc.Connected(0, 4)
	if err != nil || ok {
		t.Fatalf("after draining the graph out-of-band + Invalidate: Connected = %v, %v; want false", ok, err)
	}

	// Merging one oracle into another unwraps the argument.
	if err := orc.Merge(orc2); err != nil {
		t.Fatal(err)
	}
}

// TestMutationZeroAllocs pins a mutation with obs disabled at zero
// allocations. The epoch-bump event's attribute is an slog.Attr, which
// holds the epoch unboxed; epochs from 256 up would box as an any.
func TestMutationZeroAllocs(t *testing.T) {
	orc := For(sketch.NewSpanning(1, graph.MustDomain(8, 2), sketch.SpanningConfig{}))
	for i := 0; i < 300; i++ {
		orc.Invalidate()
	}
	e := graph.MustEdge(0, 1)
	if a := testing.AllocsPerRun(100, func() { orc.Invalidate() }); a != 0 {
		t.Errorf("Invalidate allocates %v objects, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if err := orc.Update(e, 1); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Update allocates %v objects, want 0", a)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	h := workload.Cycle(4)
	sp := sketch.NewSpanning(1, h.Domain(), sketch.SpanningConfig{})
	decode := func(*obs.Span) (*graph.Hypergraph, error) { return sp.Decode(nil) }
	for _, cfg := range []Config{
		{Sketch: nil, N: 4, Decode: decode},
		{Sketch: sp, N: 4, Decode: nil},
		{Sketch: sp, N: 0, Decode: decode},
	} {
		if _, err := New(cfg); err == nil {
			t.Fatalf("New accepted invalid config %+v", cfg)
		}
	}
}

// TestOracleMetricsExported pins the observability contract: with
// collection enabled, queries, cache hits/misses, and rebuilds feed the
// oracle_* metric family, and both latency histograms reach the
// Prometheus exporter.
func TestOracleMetricsExported(t *testing.T) {
	obs.Enable()
	defer obs.Disable()

	g, err := workload.SharedCliques(5, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := vertexconn.New(vertexconn.Params{N: g.N(), K: 2, Subgraphs: 96, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	orc := For(s)
	for _, e := range g.Edges() {
		if err := orc.Update(e, 1); err != nil {
			t.Fatal(err)
		}
	}
	for v := 1; v < g.N(); v++ {
		if _, err := orc.Connected(0, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := orc.Update(graph.MustEdge(1, 2), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := orc.Connected(1, 2); err != nil { // miss + second rebuild
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, family := range []string{
		"oracle_queries_total",
		"oracle_cache_hits_total",
		"oracle_cache_misses_total",
		"oracle_rebuild_failures_total",
		"oracle_query_latency_seconds",
		"oracle_rebuild_seconds",
	} {
		if !strings.Contains(out, family) {
			t.Errorf("exporter output missing %s", family)
		}
	}
	cs := orc.CacheStats()
	if cs.Rebuilds != 2 || cs.Misses != 2 {
		t.Fatalf("CacheStats = %+v; want 2 rebuilds, 2 misses", cs)
	}
	if cs.Hits == 0 {
		t.Fatalf("CacheStats = %+v; want warm hits", cs)
	}
}
