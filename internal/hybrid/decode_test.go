package hybrid_test

import (
	"math/rand/v2"
	"testing"

	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/hybrid"
	"graphsketch/internal/obs"
	"graphsketch/internal/stream"
)

// hubBridgeGraph builds a graph in which spilled vertices are joined only
// through spilled–spilled edges: hubs 0..hubs-1 each own a private set of
// degree-1 leaves (enough to overflow the budget), random hub pairs (and,
// for r ≥ 3, hub triples) are linked directly, and the remaining vertices
// carry a sparse random background. After exact contraction every hub sits
// in its own component, so connecting them takes real sampler rounds.
func hubBridgeGraph(rng *rand.Rand, n, r, hubs, leaves int) *graph.Hypergraph {
	h := graph.MustHypergraph(n, r)
	add := func(vs ...int) {
		if e, err := graph.NewHyperedge(vs...); err == nil && !h.Has(e) {
			h.MustAddEdge(e, 1)
		}
	}
	next := hubs
	for hub := 0; hub < hubs; hub++ {
		for i := 0; i < leaves; i++ {
			add(hub, next)
			next++
		}
	}
	for i := 0; i < hubs; i++ {
		if r > 2 && rng.IntN(3) == 0 {
			add(rng.IntN(hubs), rng.IntN(hubs), rng.IntN(hubs))
		} else {
			add(rng.IntN(hubs), rng.IntN(hubs))
		}
	}
	for i := next; i < n; i++ {
		add(next+rng.IntN(n-next), next+rng.IntN(n-next))
	}
	return h
}

// randomHypergraph is a sparse random hypergraph of m draws of 2..r
// endpoints; with no hubs it stays under any moderate budget.
func randomHypergraph(rng *rand.Rand, n, r, m int) *graph.Hypergraph {
	h := graph.MustHypergraph(n, r)
	for i := 0; i < m; i++ {
		vs := make([]int, 2+rng.IntN(r-1))
		for j := range vs {
			vs[j] = rng.IntN(n)
		}
		if e, err := graph.NewHyperedge(vs...); err == nil && !h.Has(e) {
			h.MustAddEdge(e, 1)
		}
	}
	return h
}

// churned streams final with insert/delete noise on absent edges.
func churned(rng *rand.Rand, final *graph.Hypergraph) stream.Stream {
	n := final.N()
	churn := graph.MustHypergraph(n, final.R())
	for i := 0; i < n; i++ {
		e, err := graph.NewHyperedge(rng.IntN(n), rng.IntN(n))
		if err != nil || final.Has(e) || churn.Has(e) {
			continue
		}
		churn.MustAddEdge(e, 1)
	}
	return stream.WithChurn(final, churn, rng)
}

// samePartition fails unless got's components are exactly want's.
func samePartition(t *testing.T, want *graph.Hypergraph, got *graphalg.DSU) {
	t.Helper()
	dw := graphalg.ComponentsOf(want)
	fwd, back := map[int]int{}, map[int]int{}
	for v := 0; v < want.N(); v++ {
		w, g := dw.Find(v), got.Find(v)
		if x, ok := fwd[w]; ok && x != g {
			t.Fatalf("vertex %d: true component split in the decode", v)
		}
		if x, ok := back[g]; ok && x != w {
			t.Fatalf("vertex %d: decoded component joins two true components", v)
		}
		fwd[w], back[g] = g, w
	}
}

// TestHybridDecodeTable checks the contract-then-sample decode over 200
// seeds per case: components equal ground truth, every forest edge is a real
// edge, and with no spilled vertex the forest is exactly the min-endpoint
// scan of the buffers (graphalg.SpanningForest walks edges in key order,
// which is min-endpoint order).
func TestHybridDecodeTable(t *testing.T) {
	type build func(rng *rand.Rand) (final *graph.Hypergraph, r, budget int, spillAll bool)
	sparse := func(r, hubs, budget int, spillAll bool) build {
		return func(rng *rand.Rand) (*graph.Hypergraph, int, int, bool) {
			_, final := sparseStream(t, 64, r, hubs, false, rng.Uint64())
			return final, r, budget, spillAll
		}
	}
	cases := []struct {
		name  string
		build build
	}{
		{"graph-mixed", sparse(2, 4, 16, false)},
		{"hyper-straddle", sparse(3, 3, 16, false)},
		{"spilled-bridge", func(rng *rand.Rand) (*graph.Hypergraph, int, int, bool) {
			return hubBridgeGraph(rng, 96, 3, 5, 10), 3, 16, false
		}},
		{"fully-spilled", sparse(3, 3, 16, true)},
		{"tiny-budget", sparse(2, 6, 2, false)},
		{"all-exact-hyper", func(rng *rand.Rand) (*graph.Hypergraph, int, int, bool) {
			return randomHypergraph(rng, 64, 4, 40), 4, 32, false
		}},
	}
	const seeds = 200
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spilledSeen, exactSeen, draws := false, false, int64(0)
			for seed := uint64(1); seed <= seeds; seed++ {
				rng := hashutil.NewRand(seed, 0x6463)
				final, r, budget, spillAll := tc.build(rng)
				_, hy := pair(t, final.N(), r, budget, 1000+seed)
				apply(t, churned(rng, final), hy)
				if spillAll {
					if err := hy.SpillAll(); err != nil {
						t.Fatal(err)
					}
				}
				f, d := decode(t, hy, final)
				draws += d
				f.EachEdge(func(e graph.Hyperedge) {
					if !final.Has(e) {
						t.Fatalf("seed %d: forest edge %v is not in the graph", seed, e)
					}
				})
				if hy.SpilledCount() == 0 {
					exactSeen = true
					if !f.Equal(graphalg.SpanningForest(final)) {
						t.Fatalf("seed %d: all-exact forest differs from the min-endpoint scan", seed)
					}
				} else {
					spilledSeen = true
				}
			}
			switch {
			case tc.name == "all-exact-hyper" && (!exactSeen || spilledSeen):
				t.Fatal("all-exact case spilled a vertex")
			case tc.name != "all-exact-hyper" && !spilledSeen:
				t.Fatal("no seed spilled a vertex; the sampled path went untested")
			case (tc.name == "spilled-bridge" || tc.name == "fully-spilled") && draws == 0:
				t.Fatal("no seed drew a sampler; the Boruvka rounds went untested")
			}
		})
	}
}

// decode decodes hy, checks its components against final, and returns the
// forest and how many component cuts the decode drew from samplers, read
// off hybrid_mixed_components_total.
func decode(t *testing.T, hy *hybrid.Sketch, final *graph.Hypergraph) (*graph.Hypergraph, int64) {
	t.Helper()
	obs.Enable()
	draws := obs.Default().Counter("hybrid_mixed_components_total", "")
	before := draws.Value()
	f, err := hy.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	samePartition(t, final, graphalg.ComponentsOf(f))
	return f, draws.Value() - before
}

// TestHybridDecodeNoDrawForOneSpilledComponent pins the fast path: when
// exact contraction leaves at most one component holding a spilled vertex,
// the decode draws no sampler at all. The control joins the same two hubs
// by a direct hub–hub edge instead, which only the samplers can see.
func TestHybridDecodeNoDrawForOneSpilledComponent(t *testing.T) {
	const n, budget = 64, 16 // 8 entries: 12 leaves spill a hub
	build := func(viaLeaf bool) (*hybrid.Sketch, *graph.Hypergraph) {
		final := graph.MustHypergraph(n, 2)
		for i := 0; i < 12; i++ {
			final.AddSimple(0, 2+i)
			final.AddSimple(1, 14+i)
		}
		if viaLeaf {
			final.AddSimple(2, 14) // leaf–leaf: contraction joins the hubs
		} else {
			final.AddSimple(0, 1) // spilled–spilled: only a sampler sees it
		}
		final.AddSimple(40, 41) // an unrelated all-exact component
		_, hy := pair(t, n, 2, budget, 9)
		apply(t, churned(hashutil.NewRand(9, 0x6463), final), hy)
		if !hy.Spilled(0) || !hy.Spilled(1) || hy.SpilledCount() != 2 {
			t.Fatalf("want exactly hubs 0 and 1 spilled, have %d spilled", hy.SpilledCount())
		}
		return hy, final
	}
	hy, final := build(true)
	if _, d := decode(t, hy, final); d != 0 {
		t.Fatalf("one spilled component: decode drew %d sampler cuts, want 0", d)
	}
	hy, final = build(false)
	if _, d := decode(t, hy, final); d == 0 {
		t.Fatal("two spilled components joined by a hub–hub edge: decode drew no sampler")
	}
}
