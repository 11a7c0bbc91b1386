package edgeconn

import (
	"math/rand/v2"
	"testing"

	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/stream"
	"graphsketch/internal/testutil/decodetest"
	"graphsketch/internal/testutil/frametest"
	"graphsketch/internal/workload"
)

func TestEdgeConnectivityExactBelowK(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 8; trial++ {
		h := workload.ErdosRenyi(rng, 14, 0.35)
		want, _, err := graphalg.GlobalMinCutAll(h)
		if err != nil {
			t.Fatal(err)
		}
		k := 6
		s := mustNew(t, uint64(trial), h.Domain(), k)
		if err := s.UpdateGraph(h, 1); err != nil {
			t.Fatal(err)
		}
		got, side, err := s.EdgeConnectivity()
		if err != nil {
			t.Fatal(err)
		}
		capped := want
		if capped > int64(k) {
			capped = int64(k)
		}
		if got != capped {
			t.Fatalf("trial %d: λ = %d, want %d (true %d)", trial, got, capped, want)
		}
		if want < int64(k) {
			// The witness side must realize the min cut in the TRUE graph.
			inSide := map[int]bool{}
			for _, v := range side {
				inSide[v] = true
			}
			if w := h.CutWeightSet(inSide); w != want {
				t.Fatalf("trial %d: witness side cuts %d, want %d", trial, w, want)
			}
		}
	}
}

func TestIsKEdgeConnectedHarary(t *testing.T) {
	// H_{k,n} is exactly k-edge-connected as well as k-vertex-connected.
	h := workload.MustHarary(16, 4)
	for _, k := range []int{3, 4} {
		s := mustNew(t, uint64(k), h.Domain(), k)
		if err := s.UpdateGraph(h, 1); err != nil {
			t.Fatal(err)
		}
		ok, err := s.IsKEdgeConnected()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("H_{4,16} should be %d-edge-connected", k)
		}
	}
	s := mustNew(t, 9, h.Domain(), 5)
	if err := s.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	ok, err := s.IsKEdgeConnected()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("H_{4,16} is not 5-edge-connected")
	}
}

func TestEdgeVsVertexConnectivityGap(t *testing.T) {
	// The paper's Section 1.1 gap: SharedCliques(6,6,2) has λ = 5, κ = 2.
	h, err := workload.SharedCliques(6, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, 3, h.Domain(), 8)
	if err := s.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	lambda, _, err := s.EdgeConnectivity()
	if err != nil {
		t.Fatal(err)
	}
	if lambda != 5 {
		t.Fatalf("λ = %d, want 5", lambda)
	}
	if kappa := graphalg.VertexConnectivity(h, 8); kappa != 2 {
		t.Fatalf("κ = %d, want 2", kappa)
	}
}

func TestEdgeConnectivityWithChurn(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	final := workload.Cycle(12) // λ = 2
	churn := workload.ErdosRenyi(rng, 12, 0.5)
	s := mustNew(t, 5, final.Domain(), 4)
	if err := stream.Apply(stream.WithChurn(final, churn, rng), s); err != nil {
		t.Fatal(err)
	}
	lambda, _, err := s.EdgeConnectivity()
	if err != nil {
		t.Fatal(err)
	}
	if lambda != 2 {
		t.Fatalf("λ(C12) = %d after churn, want 2", lambda)
	}
}

func TestHypergraphEdgeConnectivity(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	h := workload.PlantedCutHypergraph(rng, 14, 3, 40, 2)
	want, _, err := graphalg.GlobalMinCutAll(h)
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, 7, h.Domain(), 5)
	if err := s.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.EdgeConnectivity()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("hypergraph λ = %d, want %d", got, want)
	}
}

func TestSTCut(t *testing.T) {
	// Path graph: every s–t cut along the path is 1.
	h := graph.NewGraph(6)
	for i := 0; i < 5; i++ {
		h.AddSimple(i, i+1)
	}
	s := mustNew(t, 11, h.Domain(), 3)
	if err := s.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	got, err := s.STCut(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("path s-t cut = %d, want 1", got)
	}
}

func TestConnectedAndCache(t *testing.T) {
	h := workload.Cycle(8)
	s := mustNew(t, 13, h.Domain(), 2)
	if err := s.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	ok, err := s.Connected()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("cycle reported disconnected")
	}
	// Delete an edge: the next query decodes the new state, a path.
	if err := s.Update(graph.MustEdge(0, 1), -1); err != nil {
		t.Fatal(err)
	}
	lambda, _, err := s.EdgeConnectivity()
	if err != nil {
		t.Fatal(err)
	}
	if lambda != 1 {
		t.Fatalf("λ after deleting a cycle edge = %d, want 1", lambda)
	}
}

// TestConcurrentTracedDecode decodes a k = 2 sketch from two goroutines
// at once with obs enabled (decodetest.Concurrent).
func TestConcurrentTracedDecode(t *testing.T) {
	h := workload.MustHarary(12, 4)
	decodetest.Concurrent(t, func() decodetest.Decoder {
		s := mustNew(t, 23, h.Domain(), 2)
		if err := s.UpdateGraph(h, 1); err != nil {
			t.Fatal(err)
		}
		return s
	})
}

func TestVertexShareRoundTrip(t *testing.T) {
	h := workload.Cycle(10)
	const seed = 21
	ref := mustNew(t, seed, h.Domain(), 2)
	for v := 0; v < h.N(); v++ {
		p := mustNew(t, seed, h.Domain(), 2)
		for _, e := range h.Edges() {
			if e.Contains(v) {
				if err := p.Update(e, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := ref.AddVertexShareFrame(p.VertexShareFrame(v)); err != nil {
			t.Fatal(err)
		}
	}
	lambda, _, err := ref.EdgeConnectivity()
	if err != nil {
		t.Fatal(err)
	}
	if lambda != 2 {
		t.Fatalf("protocol λ(C10) = %d, want 2", lambda)
	}
}

func TestParamsConstruction(t *testing.T) {
	// Identical Params must yield byte-identical state after identical
	// streams (the wire-identity property checkpointing relies on), and
	// invalid Params must be rejected, not defaulted.
	h := workload.MustHarary(12, 3)
	a, err := New(Params{N: h.N(), R: h.Domain().R(), K: 3, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Params{N: h.N(), R: h.Domain().R(), K: 3, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	if !frametest.Equal(t, a, b) {
		t.Fatal("identical Params diverge: serialized state differs")
	}
	if _, err := New(Params{N: h.N(), K: 0}); err == nil {
		t.Fatal("New accepted K = 0")
	}
	if _, err := New(Params{N: 0, K: 3}); err == nil {
		t.Fatal("New accepted N = 0")
	}
}

// mustNew is the test shorthand for New over a validated domain with
// default spanning configuration.
func mustNew(tb testing.TB, seed uint64, dom graph.Domain, k int) *Sketch {
	tb.Helper()
	s, err := New(Params{N: dom.N(), R: dom.R(), K: k, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}
