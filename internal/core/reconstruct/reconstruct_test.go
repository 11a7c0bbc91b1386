package reconstruct

import (
	"errors"
	"math/rand/v2"
	"testing"

	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/testutil/frametest"
	"graphsketch/internal/workload"
)

func TestLightEdgesMatchesOffline(t *testing.T) {
	// Bridge between two triangles: light_1 = {bridge}, light_2 = all.
	h := graph.NewGraph(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		h.AddSimple(e[0], e[1])
	}
	h.AddSimple(2, 3)
	for _, k := range []int{1, 2} {
		s := mustNew(t, uint64(k), h.Domain(), k)
		if err := s.UpdateGraph(h, 1); err != nil {
			t.Fatal(err)
		}
		got, err := LightEdges(nil, s, nil)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		want := graphalg.LightEdges(h, int64(k))
		if !got.Equal(want) {
			t.Fatalf("k=%d: light %v, want %v", k, got.Edges(), want.Edges())
		}
	}
}

func TestLightEdgesRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 5; trial++ {
		h := workload.ErdosRenyi(rng, 12, 0.35)
		k := 1 + trial%2
		s := mustNew(t, uint64(10+trial), h.Domain(), k)
		if err := s.UpdateGraph(h, 1); err != nil {
			t.Fatal(err)
		}
		got, err := LightEdges(nil, s, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := graphalg.LightEdges(h, int64(k))
		if !got.Equal(want) {
			t.Fatalf("trial %d k=%d: mismatch", trial, k)
		}
	}
}

func TestReconstructPaperExample(t *testing.T) {
	// The paper's Lemma 10 separating example: 2-cut-degenerate but not
	// 2-degenerate. Theorem 15 reconstructs it with k = 2; the Becker
	// baseline at d = 2 must fail.
	h := workload.PaperExample()

	s := mustNew(t, 42, h.Domain(), 2)
	if err := s.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	got, err := Reconstruct(s)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(h) {
		t.Fatalf("reconstruction differs: got %d edges, want %d", got.EdgeCount(), h.EdgeCount())
	}

	// Becker with sparsity exactly 2 (slack 1) cannot start peeling: the
	// minimum degree is 3.
	b := NewBecker(42, h.N(), 2, 1)
	if err := b.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Reconstruct(); !errors.Is(err, ErrNotDegenerate) {
		t.Fatalf("Becker at d=2 should stall, got %v", err)
	}
}

func TestReconstructCliqueTree(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	h := workload.CliqueTree(rng, 4, 4) // 3-cut-degenerate
	s := mustNew(t, 7, h.Domain(), 3)
	if err := s.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	got, err := Reconstruct(s)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(h) {
		t.Fatal("clique tree reconstruction differs")
	}
}

func TestReconstructDetectsIncomplete(t *testing.T) {
	// K6 is 5-cut-degenerate; a k=2 reconstructor must report incomplete,
	// not fabricate.
	h := workload.Complete(6)
	s := mustNew(t, 9, h.Domain(), 2)
	if err := s.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	got, err := Reconstruct(s)
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("want ErrIncomplete, got %v", err)
	}
	// What was recovered must still be exactly light_2 (empty for K6).
	want := graphalg.LightEdges(h, 2)
	if !got.Equal(want) {
		t.Fatalf("partial recovery %v != light_2 %v", got.Edges(), want.Edges())
	}
}

func TestReconstructWithDeletions(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	final := workload.CliqueTree(rng, 3, 3) // 2-cut-degenerate
	churn := workload.ErdosRenyi(rng, final.N(), 0.4)
	s := mustNew(t, 11, final.Domain(), 2)
	if err := stream.Apply(stream.WithChurn(final, churn, rng), s); err != nil {
		t.Fatal(err)
	}
	got, err := Reconstruct(s)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(final) {
		t.Fatal("reconstruction after churn differs")
	}
}

func TestReconstructHypergraph(t *testing.T) {
	// A loose path of 3-edges: every induced subgraph has a cut of size 1,
	// so it is 1-cut-degenerate and fully reconstructible at k = 1.
	h := graph.MustHypergraph(9, 3)
	h.AddSimple(0, 1, 2)
	h.AddSimple(2, 3, 4)
	h.AddSimple(4, 5, 6)
	h.AddSimple(6, 7, 8)
	s := mustNew(t, 13, h.Domain(), 1)
	if err := s.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	got, err := Reconstruct(s)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(h) {
		t.Fatalf("hypergraph reconstruction differs: %v", got.Edges())
	}
}

func TestBeckerReconstructsDegenerate(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	// Trees are 1-degenerate; clique trees with q=3 are 2-degenerate.
	h := workload.CliqueTree(rng, 4, 3)
	b := NewBecker(3, h.N(), 2, 2)
	if err := b.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	got, err := b.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(h) {
		t.Fatal("Becker reconstruction differs")
	}
}

func TestBeckerWithDeletions(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	final := workload.CliqueTree(rng, 3, 3)
	churn := workload.ErdosRenyi(rng, final.N(), 0.5)
	b := NewBecker(5, final.N(), 2, 2)
	if err := stream.Apply(stream.WithChurn(final, churn, rng), b); err != nil {
		t.Fatal(err)
	}
	got, err := b.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(final) {
		t.Fatal("Becker reconstruction after churn differs")
	}
}

func TestBeckerRejectsHyperedges(t *testing.T) {
	b := NewBecker(1, 5, 1, 2)
	if err := b.Update(graph.MustEdge(0, 1, 2), 1); err == nil {
		t.Fatal("hyperedge accepted by graph-only Becker sketch")
	}
}

func TestSpaceComparisonBeckerVsSkeleton(t *testing.T) {
	// Both are O(d·n·polylog); the point of E6 is capability, not size,
	// but the accounting must at least be present and consistent.
	h := workload.PaperExample()
	s := mustNew(t, 1, h.Domain(), 2)
	b := NewBecker(1, h.N(), 2, 2)
	if err := s.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	if s.Words() == 0 || b.Words() == 0 {
		t.Fatal("zero-size sketches")
	}
	sTot, bTot := 0, 0
	for v := 0; v < h.N(); v++ {
		sTot += s.VertexWords(v)
		bTot += b.VertexWords(v)
	}
	// Vertex shares are cell state only; Words additionally counts the
	// interned shared randomness once per family.
	if sTot+s.SharedWords() != s.Words() || bTot+b.SharedWords() != b.Words() {
		t.Fatal("per-vertex accounting inconsistent")
	}
}

func TestParamsConstruction(t *testing.T) {
	// Identical params must yield byte-identical state after identical
	// streams (the wire-identity property checkpointing relies on), and
	// invalid params must be rejected, not defaulted: a skeleton of fewer
	// than 2 layers has no k >= 1 to reconstruct at.
	h := workload.PaperExample()
	a := mustNew(t, 77, h.Domain(), 2)
	b := mustNew(t, 77, h.Domain(), 2)
	if err := a.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	if !frametest.Equal(t, a, b) {
		t.Fatal("identical params diverge: serialized state differs")
	}
	one, err := sketch.NewSkeletonSketch(sketch.SkeletonParams{N: h.N(), K: 0 + 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LightEdges(nil, one, nil); err == nil {
		t.Fatal("LightEdges accepted k = 0")
	}
	if _, err := sketch.NewSkeletonSketch(sketch.SkeletonParams{N: 0, K: 2 + 1}); err == nil {
		t.Fatal("NewSkeletonSketch accepted N = 0")
	}
}

// mustNew is the test shorthand for the (k+1)-skeleton sketch light_k
// reads, over a validated domain with default spanning configuration.
func mustNew(tb testing.TB, seed uint64, dom graph.Domain, k int) *sketch.SkeletonSketch {
	tb.Helper()
	s, err := sketch.NewSkeletonSketch(sketch.SkeletonParams{N: dom.N(), R: dom.R(), K: k + 1, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}
