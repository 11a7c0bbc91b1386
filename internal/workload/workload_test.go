package workload

import (
	"math/rand/v2"
	"testing"

	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
)

func TestHararyExactConnectivity(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{8, 2}, {8, 3}, {9, 2}, {9, 3}, {10, 4}, {11, 3}, {12, 5}, {13, 4},
	} {
		h := MustHarary(tc.n, tc.k)
		got := graphalg.VertexConnectivity(h, graphalg.Unbounded)
		if got != int64(tc.k) {
			t.Errorf("κ(H_{%d,%d}) = %d, want %d", tc.k, tc.n, got, tc.k)
		}
	}
}

func TestHararyEdgeCount(t *testing.T) {
	// H_{k,n} has ⌈kn/2⌉ edges.
	for _, tc := range []struct{ n, k int }{{10, 4}, {10, 3}, {9, 2}} {
		h := MustHarary(tc.n, tc.k)
		want := (tc.k*tc.n + 1) / 2
		if h.EdgeCount() != want {
			t.Errorf("H_{%d,%d} has %d edges, want %d", tc.k, tc.n, h.EdgeCount(), want)
		}
	}
}

func TestHararyValidation(t *testing.T) {
	if _, err := Harary(5, 5); err == nil {
		t.Error("k = n accepted")
	}
	if _, err := Harary(5, 0); err == nil {
		t.Error("k = 0 accepted")
	}
}

func TestSharedCliquesGap(t *testing.T) {
	// κ = s, λ = min(a,b)-1: the paper's edge/vertex connectivity gap.
	h, err := SharedCliques(6, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := graphalg.VertexConnectivity(h, graphalg.Unbounded); got != 2 {
		t.Fatalf("κ = %d, want 2", got)
	}
	lambda, _, err := graphalg.GlobalMinCutAll(h)
	if err != nil {
		t.Fatal(err)
	}
	if lambda != 5 {
		t.Fatalf("λ = %d, want 5", lambda)
	}
}

func TestSharedCliquesValidation(t *testing.T) {
	if _, err := SharedCliques(4, 4, 4); err == nil {
		t.Error("s >= min(a,b) accepted")
	}
}

func TestIndexBipartite(t *testing.T) {
	// x(i,j) = (i+j) even.
	x := func(i, j int) bool { return (i+j)%2 == 0 }
	k, n := 2, 4
	h := IndexBipartite(x, k, n)
	if h.N() != k+1+n {
		t.Fatalf("n = %d", h.N())
	}
	for i := 0; i <= k; i++ {
		for j := 0; j < n; j++ {
			has := h.Has(graph.MustEdge(i, k+1+j))
			if has != x(i, j) {
				t.Fatalf("edge (%d,%d): got %v, want %v", i, j, has, x(i, j))
			}
		}
	}
}

func TestCliqueTreeCutDegeneracy(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, q := range []int{3, 4} {
		h := CliqueTree(rng, 4, q)
		if got := graphalg.CutDegeneracy(h); got != int64(q-1) {
			t.Fatalf("q=%d: cut-degeneracy = %d, want %d", q, got, q-1)
		}
		if !graphalg.Connected(h) {
			t.Fatalf("q=%d: clique tree not connected", q)
		}
	}
}

func TestPaperExampleProperties(t *testing.T) {
	h := PaperExample()
	if h.N() != 8 || h.EdgeCount() != 12 {
		t.Fatalf("shape: n=%d m=%d, want 8, 12", h.N(), h.EdgeCount())
	}
	if got := graphalg.Degeneracy(h); got != 3 {
		t.Fatalf("degeneracy = %d, want 3 (min degree 3)", got)
	}
	if got := graphalg.CutDegeneracy(h); got != 2 {
		t.Fatalf("cut-degeneracy = %d, want 2", got)
	}
}

func TestUniformHypergraph(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	h := UniformHypergraph(rng, 20, 3, 40)
	if h.EdgeCount() != 40 {
		t.Fatalf("m = %d, want 40", h.EdgeCount())
	}
	for _, e := range h.Edges() {
		if len(e) != 3 {
			t.Fatalf("non-uniform edge %v", e)
		}
	}
}

func TestUniformHypergraphSaturation(t *testing.T) {
	// Asking for more edges than exist must terminate.
	rng := rand.New(rand.NewPCG(5, 6))
	h := UniformHypergraph(rng, 4, 3, 1000)
	if h.EdgeCount() != 4 { // C(4,3) = 4
		t.Fatalf("saturated m = %d, want 4", h.EdgeCount())
	}
}

func TestMixedHypergraph(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	h := MixedHypergraph(rng, 20, 4, 30)
	if h.EdgeCount() != 30 {
		t.Fatalf("m = %d", h.EdgeCount())
	}
	sizes := map[int]bool{}
	for _, e := range h.Edges() {
		sizes[len(e)] = true
		if len(e) < 2 || len(e) > 4 {
			t.Fatalf("edge size %d out of range", len(e))
		}
	}
	if len(sizes) < 2 {
		t.Fatal("mixed hypergraph produced single cardinality")
	}
}

func TestPlantedCutHypergraph(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	n := 16
	h := PlantedCutHypergraph(rng, n, 3, 30, 2)
	cross := 0
	inS := func(v int) bool { return v < n/2 }
	for _, e := range h.Edges() {
		if e.Crosses(inS) {
			cross++
		}
	}
	if cross != 2 {
		t.Fatalf("planted cut has %d crossing edges, want 2", cross)
	}
	lambda, _, err := graphalg.GlobalMinCutAll(h)
	if err != nil {
		t.Fatal(err)
	}
	if lambda > 2 {
		t.Fatalf("global min cut %d exceeds planted cut 2", lambda)
	}
}

func TestChungLuShape(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	n := 200
	h := ChungLu(rng, n, 2.5, 6)
	avg := 2 * float64(h.EdgeCount()) / float64(n)
	if avg < 2 || avg > 12 {
		t.Fatalf("average degree %.1f far from target 6", avg)
	}
	// Heavy tail: max degree should be well above average.
	var maxDeg int64
	for v := 0; v < n; v++ {
		if d := h.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	if float64(maxDeg) < 2*avg {
		t.Fatalf("max degree %d not heavy-tailed vs avg %.1f", maxDeg, avg)
	}
}

func TestCycleAndComplete(t *testing.T) {
	c := Cycle(5)
	if c.EdgeCount() != 5 {
		t.Fatal("cycle edge count")
	}
	if got := graphalg.VertexConnectivity(c, graphalg.Unbounded); got != 2 {
		t.Fatalf("κ(C5) = %d", got)
	}
	k := Complete(5)
	if k.EdgeCount() != 10 {
		t.Fatal("K5 edge count")
	}
}

func TestErdosRenyiDensity(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	h := ErdosRenyi(rng, 50, 0.2)
	want := 0.2 * 50 * 49 / 2
	got := float64(h.EdgeCount())
	if got < want/2 || got > want*2 {
		t.Fatalf("edge count %.0f far from expectation %.0f", got, want)
	}
}

func TestPreferentialAttachmentShape(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	n := 200
	h := PreferentialAttachment(rng, n, 2)
	if !graphalg.Connected(h) {
		t.Fatal("BA graph should be connected")
	}
	var maxDeg int64
	for v := 0; v < n; v++ {
		if d := h.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	avg := 2 * float64(h.EdgeCount()) / float64(n)
	if float64(maxDeg) < 3*avg {
		t.Fatalf("max degree %d not hub-heavy vs avg %.1f", maxDeg, avg)
	}
}

func TestGridProperties(t *testing.T) {
	g := Grid(4, 5)
	if g.N() != 20 {
		t.Fatalf("n = %d", g.N())
	}
	if g.EdgeCount() != 4*4+3*5 {
		t.Fatalf("m = %d, want 31", g.EdgeCount())
	}
	if got := graphalg.VertexConnectivity(g, 4); got != 2 {
		t.Fatalf("grid κ = %d, want 2", got)
	}
}

func TestSharedHyperCommunities(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 20))
	h := SharedHyperCommunities(rng, 7, 2, 3, 25)
	if h.N() != 12 {
		t.Fatalf("n = %d, want 12", h.N())
	}
	if !graphalg.Connected(h) {
		t.Fatal("communities not connected")
	}
	// The shared vertices {5,6} separate under drop semantics.
	if !graphalg.DisconnectsQueryMode(h, map[int]bool{5: true, 6: true}, graph.DropIncident) {
		t.Fatal("shared overlap is not a separator")
	}
}
