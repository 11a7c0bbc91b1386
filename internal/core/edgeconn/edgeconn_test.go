package edgeconn

import (
	"math/rand/v2"
	"testing"

	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/sketch"
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
		got, side, err := Connectivity(skeletonOf(t, uint64(trial), h, k), k)
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
	// H_{k,n} is exactly k-edge-connected as well as k-vertex-connected:
	// λ ≥ k, read off a k-skeleton, holds for k = 3, 4 and fails for 5.
	h := workload.MustHarary(16, 4)
	for _, c := range []struct {
		seed uint64
		k    int
		want bool
	}{{3, 3, true}, {4, 4, true}, {9, 5, false}} {
		lambda, _, err := Connectivity(skeletonOf(t, c.seed, h, c.k), c.k)
		if err != nil {
			t.Fatal(err)
		}
		if got := lambda >= int64(c.k); got != c.want {
			t.Fatalf("H_{4,16} %d-edge-connected = %v, want %v", c.k, got, c.want)
		}
	}
}

func TestEdgeVsVertexConnectivityGap(t *testing.T) {
	// The paper's Section 1.1 gap: SharedCliques(6,6,2) has λ = 5, κ = 2.
	h, err := workload.SharedCliques(6, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	lambda, _, err := Connectivity(skeletonOf(t, 3, h, 8), 8)
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
	s := newSkeleton(t, 5, final.Domain(), 4)
	if err := stream.Apply(stream.WithChurn(final, churn, rng), s); err != nil {
		t.Fatal(err)
	}
	lambda, _, err := Connectivity(decode(t, s), s.K())
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
	got, _, err := Connectivity(skeletonOf(t, 7, h, 5), 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("hypergraph λ = %d, want %d", got, want)
	}
}

func TestSTCut(t *testing.T) {
	// Path graph: every s–t cut along the path is 1, and a 3-skeleton
	// keeps it.
	h := graph.NewGraph(6)
	for i := 0; i < 5; i++ {
		h.AddSimple(i, i+1)
	}
	if got := graphalg.STEdgeCut(skeletonOf(t, 11, h, 3), 0, 5, 3); got != 1 {
		t.Fatalf("path s-t cut = %d, want 1", got)
	}
}

func TestConnectedAndCache(t *testing.T) {
	h := workload.Cycle(8)
	s := newSkeleton(t, 13, h.Domain(), 2)
	if err := s.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	if !graphalg.Connected(decode(t, s)) {
		t.Fatal("cycle reported disconnected")
	}
	// Delete an edge: the next decode reads the new state, a path.
	if err := s.Update(graph.MustEdge(0, 1), -1); err != nil {
		t.Fatal(err)
	}
	lambda, _, err := Connectivity(decode(t, s), s.K())
	if err != nil {
		t.Fatal(err)
	}
	if lambda != 1 {
		t.Fatalf("λ after deleting a cycle edge = %d, want 1", lambda)
	}
}

// TestConcurrentTracedDecode decodes a k = 2 skeleton from two goroutines
// at once with obs enabled (decodetest.Concurrent), and reads λ = 2 off a
// decode.
func TestConcurrentTracedDecode(t *testing.T) {
	h := workload.MustHarary(12, 4)
	build := func() *sketch.SkeletonSketch {
		s := newSkeleton(t, 23, h.Domain(), 2)
		if err := s.UpdateGraph(h, 1); err != nil {
			t.Fatal(err)
		}
		return s
	}
	decodetest.Concurrent(t, func() decodetest.Decoder { return build() })
	if lambda, _, err := Connectivity(decode(t, build()), 2); err != nil || lambda != 2 {
		t.Fatalf("λ(H_{4,12}) capped at 2 = %d, %v; want 2", lambda, err)
	}
}

func TestVertexShareRoundTrip(t *testing.T) {
	h := workload.Cycle(10)
	const seed = 21
	ref := newSkeleton(t, seed, h.Domain(), 2)
	for v := 0; v < h.N(); v++ {
		p := newSkeleton(t, seed, h.Domain(), 2)
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
	lambda, _, err := Connectivity(decode(t, ref), ref.K())
	if err != nil {
		t.Fatal(err)
	}
	if lambda != 2 {
		t.Fatalf("protocol λ(C10) = %d, want 2", lambda)
	}
}

func TestParamsConstruction(t *testing.T) {
	// Identical params must yield byte-identical state after identical
	// streams (the wire-identity property checkpointing relies on), and
	// invalid params — a skeleton's or the cap's — must be rejected, not
	// defaulted.
	h := workload.MustHarary(12, 3)
	a := newSkeleton(t, 55, h.Domain(), 3)
	b := newSkeleton(t, 55, h.Domain(), 3)
	if err := a.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	if !frametest.Equal(t, a, b) {
		t.Fatal("identical params diverge: serialized state differs")
	}
	if _, err := sketch.NewSkeletonSketch(sketch.SkeletonParams{N: h.N(), K: 0}); err == nil {
		t.Fatal("NewSkeletonSketch accepted K = 0")
	}
	if _, err := sketch.NewSkeletonSketch(sketch.SkeletonParams{N: 0, K: 3}); err == nil {
		t.Fatal("NewSkeletonSketch accepted N = 0")
	}
	if _, _, err := Connectivity(decode(t, a), 0); err == nil {
		t.Fatal("Connectivity accepted k = 0")
	}
}

// newSkeleton is the test shorthand for a k-skeleton sketch over dom with
// default spanning configuration.
func newSkeleton(tb testing.TB, seed uint64, dom graph.Domain, k int) *sketch.SkeletonSketch {
	tb.Helper()
	s, err := sketch.NewSkeletonSketch(sketch.SkeletonParams{N: dom.N(), R: dom.R(), K: k, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// decode returns s's decoded skeleton.
func decode(tb testing.TB, s *sketch.SkeletonSketch) *graph.Hypergraph {
	tb.Helper()
	skel, err := s.Decode(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return skel
}

// skeletonOf returns a decoded k-skeleton of h.
func skeletonOf(tb testing.TB, seed uint64, h *graph.Hypergraph, k int) *graph.Hypergraph {
	tb.Helper()
	s := newSkeleton(tb, seed, h.Domain(), k)
	if err := s.UpdateGraph(h, 1); err != nil {
		tb.Fatal(err)
	}
	return decode(tb, s)
}
