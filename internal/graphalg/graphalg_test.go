package graphalg

import (
	"math/rand/v2"
	"testing"

	"graphsketch/internal/graph"
)

func TestDSUBasic(t *testing.T) {
	d := NewDSU(5)
	if d.Components() != 5 {
		t.Fatal("fresh DSU wrong component count")
	}
	if !d.Union(0, 1) || !d.Union(1, 2) {
		t.Fatal("union of distinct sets returned false")
	}
	if d.Union(0, 2) {
		t.Fatal("union of same set returned true")
	}
	if !d.Same(0, 2) || d.Same(0, 3) {
		t.Fatal("Same wrong")
	}
	if d.Components() != 3 {
		t.Fatalf("components = %d, want 3", d.Components())
	}
	if d.SizeOf(1) != 3 {
		t.Fatalf("SizeOf = %d, want 3", d.SizeOf(1))
	}
	g := d.Groups()
	if len(g) != 3 {
		t.Fatalf("groups = %d, want 3", len(g))
	}
}

func TestConnectedAndComponents(t *testing.T) {
	h := graph.MustHypergraph(6, 3)
	h.AddSimple(0, 1, 2)
	h.AddSimple(3, 4)
	if Connected(h) {
		t.Fatal("disconnected graph reported connected")
	}
	if !SameComponent(h, 0, 2) || SameComponent(h, 0, 3) {
		t.Fatal("SameComponent wrong")
	}
	h.AddSimple(2, 3)
	h.AddSimple(4, 5)
	if !Connected(h) {
		t.Fatal("connected graph reported disconnected")
	}
}

func TestConnectedOn(t *testing.T) {
	h := graph.NewGraph(5)
	h.AddSimple(0, 1)
	h.AddSimple(2, 3)
	// Ignoring vertex 4 and the gap between components.
	if ConnectedOn(h, func(v int) bool { return v <= 1 }) == false {
		t.Fatal("subset {0,1} should be connected")
	}
	if ConnectedOn(h, func(v int) bool { return v <= 2 }) {
		t.Fatal("subset {0,1,2} is not connected")
	}
}

func TestSpanningForestPreservesConnectivity(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 1))
	for trial := 0; trial < 50; trial++ {
		h := randomHypergraph(rng, 10, 3, 15)
		f := SpanningForest(h)
		dh := ComponentsOf(h)
		df := ComponentsOf(f)
		for u := 0; u < 10; u++ {
			for v := u + 1; v < 10; v++ {
				if dh.Same(u, v) != df.Same(u, v) {
					t.Fatalf("trial %d: forest connectivity differs at (%d,%d)", trial, u, v)
				}
			}
		}
		if f.EdgeCount() > 9 {
			t.Fatalf("forest has %d hyperedges on 10 vertices", f.EdgeCount())
		}
	}
}

func TestMaxFlowSmall(t *testing.T) {
	// Classic 4-node diamond: s=0, t=3, two disjoint paths.
	f := NewFlowNetwork(4)
	f.AddArc(0, 1, 1)
	f.AddArc(0, 2, 1)
	f.AddArc(1, 3, 1)
	f.AddArc(2, 3, 1)
	if got := f.MaxFlow(0, 3, Unbounded); got != 2 {
		t.Fatalf("flow = %d, want 2", got)
	}
}

func TestMaxFlowLimit(t *testing.T) {
	f := NewFlowNetwork(2)
	for i := 0; i < 10; i++ {
		f.AddArc(0, 1, 1)
	}
	if got := f.MaxFlow(0, 1, 3); got != 3 {
		t.Fatalf("limited flow = %d, want 3", got)
	}
}

func TestSTEdgeCutAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 7))
	for trial := 0; trial < 40; trial++ {
		h := randomHypergraph(rng, 7, 3, 10)
		s, tt := rng.IntN(7), rng.IntN(7)
		if s == tt {
			continue
		}
		want := bruteSTEdgeCut(h, s, tt)
		got := STEdgeCut(h, s, tt, Unbounded)
		if got != want {
			t.Fatalf("trial %d: STEdgeCut(%d,%d) = %d, want %d", trial, s, tt, got, want)
		}
	}
}

func TestSTVertexCutAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 7))
	for trial := 0; trial < 40; trial++ {
		h := randomHypergraph(rng, 7, 3, 10)
		s, tt := rng.IntN(7), rng.IntN(7)
		if s == tt || Adjacent(h, s, tt) {
			continue
		}
		want := bruteSTVertexCut(h, s, tt, 7)
		got := STVertexCut(h, s, tt, 7)
		if got != want {
			t.Fatalf("trial %d: STVertexCut(%d,%d) = %d, want %d", trial, s, tt, got, want)
		}
	}
}

func TestVertexDisjointPathsGraph(t *testing.T) {
	// Two internally disjoint paths plus a direct edge: 3 disjoint paths.
	h := graph.NewGraph(6)
	h.AddSimple(0, 5) // direct
	h.AddSimple(0, 1) // path via 1
	h.AddSimple(1, 5) //
	h.AddSimple(0, 2) // path via 2,3
	h.AddSimple(2, 3) //
	h.AddSimple(3, 5) //
	h.AddSimple(2, 4) // dead end
	if got := VertexDisjointPaths(h, 0, 5, 10); got != 3 {
		t.Fatalf("disjoint paths = %d, want 3", got)
	}
}

func TestGlobalMinCutAgainstBruteGraphs(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 9))
	for trial := 0; trial < 60; trial++ {
		h := randomHypergraph(rng, 8, 2, 14)
		want := bruteGlobalMinCut(h, allVerts(8))
		got, side, err := GlobalMinCut(h, allVerts(8))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: min cut = %d, want %d", trial, got, want)
		}
		// The returned side must realize the value.
		inSide := map[int]bool{}
		for _, v := range side {
			inSide[v] = true
		}
		if len(side) == 0 || len(side) == 8 {
			t.Fatalf("trial %d: degenerate side %v", trial, side)
		}
		if w := h.CutWeightSet(inSide); w != got {
			t.Fatalf("trial %d: side realizes %d, reported %d", trial, w, got)
		}
	}
}

func TestGlobalMinCutAgainstBruteHypergraphs(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	for trial := 0; trial < 60; trial++ {
		h := randomHypergraph(rng, 8, 4, 12)
		want := bruteGlobalMinCut(h, allVerts(8))
		got, side, err := GlobalMinCut(h, allVerts(8))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: hypergraph min cut = %d, want %d", trial, got, want)
		}
		inSide := map[int]bool{}
		for _, v := range side {
			inSide[v] = true
		}
		if w := h.CutWeightSet(inSide); w != got {
			t.Fatalf("trial %d: side realizes %d, reported %d", trial, w, got)
		}
	}
}

func TestGlobalMinCutWeighted(t *testing.T) {
	// Weighted barbell: two triangles joined by a weight-1 bridge.
	h := graph.NewGraph(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		h.MustAddEdge(graph.MustEdge(e[0], e[1]), 5)
	}
	h.MustAddEdge(graph.MustEdge(2, 3), 1)
	got, side, err := GlobalMinCut(h, allVerts(6))
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("min cut = %d, want 1", got)
	}
	if len(side) != 3 {
		t.Fatalf("side size = %d, want 3 (one triangle)", len(side))
	}
}

func TestGlobalMinCutSubset(t *testing.T) {
	// Induced-on-subset semantics: edges leaving the subset are ignored.
	h := graph.NewGraph(5)
	h.AddSimple(0, 1)
	h.AddSimple(1, 2)
	h.AddSimple(0, 2)
	h.AddSimple(2, 3) // leaves the subset {0,1,2}
	got, _, err := GlobalMinCut(h, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("induced min cut = %d, want 2", got)
	}
}

func TestGlobalMinCutDisconnected(t *testing.T) {
	h := graph.NewGraph(4)
	h.AddSimple(0, 1)
	h.AddSimple(2, 3)
	got, _, err := GlobalMinCut(h, allVerts(4))
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("disconnected min cut = %d, want 0", got)
	}
	if _, _, err := GlobalMinCut(h, []int{0}); err == nil {
		t.Fatal("single-vertex min cut should error")
	}
}

func TestLambdaEAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 2))
	for trial := 0; trial < 30; trial++ {
		h := randomHypergraph(rng, 7, 3, 9)
		for _, e := range h.Edges() {
			want := bruteLambdaE(h, e)
			got := LambdaE(h, e, Unbounded)
			if got != want {
				t.Fatalf("trial %d: λ_%v = %d, want %d", trial, e, got, want)
			}
		}
	}
}

func TestVertexConnectivityAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 2))
	for trial := 0; trial < 30; trial++ {
		h := randomHypergraph(rng, 7, 3, 11)
		want := bruteVertexConnectivity(h)
		got := VertexConnectivity(h, Unbounded)
		if got != want {
			t.Fatalf("trial %d: κ = %d, want %d (graph %v)", trial, got, want, h.Edges())
		}
	}
}

func TestVertexConnectivityKnownGraphs(t *testing.T) {
	// Cycle C5: κ = 2.
	c5 := graph.NewGraph(5)
	for i := 0; i < 5; i++ {
		c5.AddSimple(i, (i+1)%5)
	}
	if got := VertexConnectivity(c5, Unbounded); got != 2 {
		t.Fatalf("κ(C5) = %d, want 2", got)
	}
	// Complete K5: κ = 4 by convention.
	k5 := graph.NewGraph(5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			k5.AddSimple(i, j)
		}
	}
	if got := VertexConnectivity(k5, Unbounded); got != 4 {
		t.Fatalf("κ(K5) = %d, want 4", got)
	}
	// Path P4: κ = 1.
	p4 := graph.NewGraph(4)
	p4.AddSimple(0, 1)
	p4.AddSimple(1, 2)
	p4.AddSimple(2, 3)
	if got := VertexConnectivity(p4, Unbounded); got != 1 {
		t.Fatalf("κ(P4) = %d, want 1", got)
	}
	// Disconnected: κ = 0.
	dis := graph.NewGraph(4)
	dis.AddSimple(0, 1)
	if got := VertexConnectivity(dis, Unbounded); got != 0 {
		t.Fatalf("κ(disconnected) = %d, want 0", got)
	}
}

func TestVertexVsEdgeConnectivityGap(t *testing.T) {
	// Two K5s sharing one vertex: vertex connectivity 1, edge connectivity 4.
	// This is the paper's motivating distinction (Section 1.1).
	h := graph.NewGraph(9)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			h.AddSimple(i, j)
		}
	}
	for i := 4; i < 9; i++ {
		for j := i + 1; j < 9; j++ {
			h.AddSimple(i, j)
		}
	}
	if got := VertexConnectivity(h, Unbounded); got != 1 {
		t.Fatalf("κ = %d, want 1", got)
	}
	econn, _, err := GlobalMinCutAll(h)
	if err != nil {
		t.Fatal(err)
	}
	if econn != 4 {
		t.Fatalf("λ = %d, want 4", econn)
	}
}

func TestDisconnectsQuery(t *testing.T) {
	// Star: removing the hub disconnects.
	h := graph.NewGraph(4)
	h.AddSimple(0, 1)
	h.AddSimple(0, 2)
	h.AddSimple(0, 3)
	if !DisconnectsQuery(h, map[int]bool{0: true}) {
		t.Fatal("removing hub should disconnect")
	}
	if DisconnectsQuery(h, map[int]bool{1: true}) {
		t.Fatal("removing a leaf should not disconnect")
	}
	// Removing all but one vertex: not a disconnection.
	if DisconnectsQuery(h, map[int]bool{0: true, 1: true, 2: true}) {
		t.Fatal("one survivor is connected by convention")
	}
}

// TestDisconnectsQueryDropIncident checks the drop-semantics query, which
// unions the hyperedges S misses in place, against its definition: delete
// S's hyperedges (RemoveVertices) and ask whether the survivors are
// connected. Random hypergraphs and removal sets of every size.
func TestDisconnectsQueryDropIncident(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 4))
	for trial := 0; trial < 300; trial++ {
		h := randomHypergraph(rng, 9, 3, 4+rng.IntN(12))
		s := map[int]bool{}
		for v := 0; v < 9; v++ {
			if rng.IntN(4) == 0 {
				s[v] = true
			}
		}
		keep := func(v int) bool { return !s[v] }
		want := len(s) < 8 && !ConnectedOn(h.RemoveVertices(func(v int) bool { return s[v] }, graph.DropIncident), keep)
		if got := DisconnectsQueryMode(h, s, graph.DropIncident); got != want {
			t.Fatalf("trial %d: removing %v from %v: got %v, want %v", trial, s, h, got, want)
		}
	}
}

func TestWeakAndLightEdges(t *testing.T) {
	// Two triangles joined by a bridge. λ_e of the bridge is 1; triangle
	// edges have λ_e = 2 until the bridge is gone, and stay 2 after (each
	// triangle is 2-edge-connected).
	h := graph.NewGraph(6)
	tri := [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}}
	for _, e := range tri {
		h.AddSimple(e[0], e[1])
	}
	h.AddSimple(2, 3)

	weak1 := WeakEdges(h, 1)
	if len(weak1) != 1 || !weak1[0].Equal(graph.MustEdge(2, 3)) {
		t.Fatalf("weak edges at k=1: %v", weak1)
	}
	light1 := LightEdges(h, 1)
	if light1.EdgeCount() != 1 {
		t.Fatalf("light_1 = %v", light1.Edges())
	}
	light2 := LightEdges(h, 2)
	if light2.EdgeCount() != 7 {
		t.Fatalf("light_2 has %d edges, want all 7", light2.EdgeCount())
	}
}

func TestLemma16LightEqualsStrength(t *testing.T) {
	// The paper's Lemma 16: light_k(G) = {e : strength(e) <= k}.
	rng := rand.New(rand.NewPCG(8, 3))
	for trial := 0; trial < 25; trial++ {
		h := randomHypergraph(rng, 8, 2, 14)
		for _, k := range []int64{1, 2, 3} {
			direct := LightEdges(h, k)
			byStrength := LightEdgesByStrength(h, k)
			if !direct.Equal(byStrength) {
				t.Fatalf("trial %d k=%d: light %v != strength-based %v",
					trial, k, direct.Edges(), byStrength.Edges())
			}
		}
	}
}

func TestLemma16ExtendsToHypergraphs(t *testing.T) {
	// The same equivalence holds for hypergraph crossing cuts (the
	// decomposition argument carries over); this test documents that.
	rng := rand.New(rand.NewPCG(9, 3))
	for trial := 0; trial < 15; trial++ {
		h := randomHypergraph(rng, 7, 3, 10)
		for _, k := range []int64{1, 2} {
			direct := LightEdges(h, k)
			byStrength := LightEdgesByStrength(h, k)
			if !direct.Equal(byStrength) {
				t.Fatalf("trial %d k=%d: hypergraph light mismatch", trial, k)
			}
		}
	}
}

func TestDegeneracyKnown(t *testing.T) {
	// A tree is 1-degenerate.
	tree := graph.NewGraph(5)
	tree.AddSimple(0, 1)
	tree.AddSimple(0, 2)
	tree.AddSimple(2, 3)
	tree.AddSimple(2, 4)
	if got := Degeneracy(tree); got != 1 {
		t.Fatalf("tree degeneracy = %d, want 1", got)
	}
	// K4 is 3-degenerate.
	k4 := graph.NewGraph(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			k4.AddSimple(i, j)
		}
	}
	if got := Degeneracy(k4); got != 3 {
		t.Fatalf("K4 degeneracy = %d, want 3", got)
	}
}

// paperExampleGraph builds the 8-vertex graph from the proof of Lemma 10:
// vertices v1..v4 (0..3) and u1..u4 (4..7); edges {vi,vj} and {ui,uj} for
// all i<j except (1,4); plus {v1,u1} and {v4,u4}. It has minimum degree 3
// (so it is not 2-degenerate) but is 2-cut-degenerate.
func paperExampleGraph() *graph.Hypergraph {
	h := graph.NewGraph(8)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if i == 0 && j == 3 {
				continue // except i=1, j=4 in the paper's 1-based names
			}
			h.AddSimple(i, j)     // v_{i+1} v_{j+1}
			h.AddSimple(4+i, 4+j) // u_{i+1} u_{j+1}
		}
	}
	h.AddSimple(0, 4) // v1 u1
	h.AddSimple(3, 7) // v4 u4
	return h
}

func TestLemma10PaperExample(t *testing.T) {
	h := paperExampleGraph()
	// Minimum degree 3 => not 2-degenerate.
	if got := Degeneracy(h); got <= 2 {
		t.Fatalf("degeneracy = %d, expected > 2", got)
	}
	// But 2-cut-degenerate.
	if got := CutDegeneracy(h); got != 2 {
		t.Fatalf("cut-degeneracy = %d, want 2", got)
	}
	if !IsCutDegenerate(h, 2) {
		t.Fatal("IsCutDegenerate(2) = false")
	}
	if got := bruteCutDegeneracy(h); got != 2 {
		t.Fatalf("brute cut-degeneracy = %d, want 2", got)
	}
}

func TestLemma10DegenerateImpliesCutDegenerate(t *testing.T) {
	// First half of Lemma 10: d-degenerate => d-cut-degenerate.
	rng := rand.New(rand.NewPCG(11, 3))
	for trial := 0; trial < 20; trial++ {
		h := randomHypergraph(rng, 7, 2, 10)
		if CutDegeneracy(h) > Degeneracy(h) {
			t.Fatalf("trial %d: cut-degeneracy %d > degeneracy %d",
				trial, CutDegeneracy(h), Degeneracy(h))
		}
	}
}

func TestCutDegeneracyAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 3))
	for trial := 0; trial < 15; trial++ {
		h := randomHypergraph(rng, 6, 3, 8)
		want := bruteCutDegeneracy(h)
		got := CutDegeneracy(h)
		if got != want {
			t.Fatalf("trial %d: cut-degeneracy = %d, want %d", trial, got, want)
		}
	}
}

func TestEdgeStrengthsKnown(t *testing.T) {
	// Bridge between two triangles: bridge strength 1, triangle edges 2.
	h := graph.NewGraph(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		h.AddSimple(e[0], e[1])
	}
	h.AddSimple(2, 3)
	s := EdgeStrengths(h)
	if s[graph.MustEdge(2, 3).String()] != 1 {
		t.Fatalf("bridge strength = %d, want 1", s[graph.MustEdge(2, 3).String()])
	}
	if s[graph.MustEdge(0, 1).String()] != 2 {
		t.Fatalf("triangle strength = %d, want 2", s[graph.MustEdge(0, 1).String()])
	}
}

func TestEppsteinInsertOnlyCorrect(t *testing.T) {
	// On insert-only streams the filter certifies connectivity: stream a
	// 3-vertex-connected graph and check the certificate stays 3-connected.
	n := 10
	h := graph.NewGraph(n)
	// Circulant C10(1,2,3): 6-regular, vertex connectivity 6 >= 3.
	for i := 0; i < n; i++ {
		for _, d := range []int{1, 2, 3} {
			u, v := i, (i+d)%n
			if u != v {
				e := graph.MustEdge(u, v)
				if !h.Has(e) {
					h.MustAddEdge(e, 1)
				}
			}
		}
	}
	f := NewEppsteinFilter(n, 3)
	for _, e := range h.Edges() {
		if _, err := f.Insert(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.VertexConnectivity(); got != 3 {
		t.Fatalf("certificate κ = %d, want >= 3 (capped)", got)
	}
	if f.EdgesStored() > 3*n {
		t.Fatalf("stored %d edges, insert-only bound is %d", f.EdgesStored(), 3*n)
	}
}

func BenchmarkGlobalMinCut(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	h := randomHypergraph(rng, 40, 3, 120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := GlobalMinCutAll(h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVertexConnectivity(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 1))
	h := randomHypergraph(rng, 30, 2, 120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VertexConnectivity(h, 8)
	}
}

func TestArticulationVerticesKnown(t *testing.T) {
	// Two triangles sharing vertex 2: vertex 2 is the unique articulation.
	h := graph.NewGraph(5)
	h.AddSimple(0, 1)
	h.AddSimple(1, 2)
	h.AddSimple(0, 2)
	h.AddSimple(2, 3)
	h.AddSimple(3, 4)
	h.AddSimple(2, 4)
	got := ArticulationVertices(h)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("articulation vertices = %v, want [2]", got)
	}
	// A cycle has none.
	c := graph.NewGraph(5)
	for i := 0; i < 5; i++ {
		c.AddSimple(i, (i+1)%5)
	}
	if got := ArticulationVertices(c); len(got) != 0 {
		t.Fatalf("cycle articulation vertices = %v, want none", got)
	}
}

func TestArticulationVerticesAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 1))
	for trial := 0; trial < 40; trial++ {
		h := randomHypergraph(rng, 8, 3, 8)
		want := map[int]bool{}
		for v := 0; v < 8; v++ {
			if DisconnectsQuery(h, map[int]bool{v: true}) {
				want[v] = true
			}
		}
		got := map[int]bool{}
		for _, v := range ArticulationVertices(h) {
			got[v] = true
		}
		// Articulation = removal increases #components; DisconnectsQuery
		// is about the REMAINING graph being disconnected, which for an
		// already-disconnected graph differs. Compare per vertex via the
		// component-count definition instead.
		want = map[int]bool{}
		base := ComponentsOf(h).Components()
		for v := 0; v < 8; v++ {
			reduced := h.RemoveVertices(func(u int) bool { return u == v }, graph.RestrictEdges)
			// Removing v always isolates it, adding one component unless
			// v was already isolated.
			after := ComponentsOf(reduced).Components()
			wasIsolated := h.Degree(v) == 0
			expected := base
			if !wasIsolated {
				expected++ // v itself splits off
			}
			if after > expected {
				want[v] = true
			}
		}
		for v := 0; v < 8; v++ {
			if got[v] != want[v] {
				t.Fatalf("trial %d: vertex %d articulation = %v, want %v (graph %v)",
					trial, v, got[v], want[v], h.Edges())
			}
		}
	}
}

func TestVertexConnectivityFastPaths(t *testing.T) {
	// Disconnected: 0 without any flow.
	dis := graph.NewGraph(6)
	dis.AddSimple(0, 1)
	dis.AddSimple(2, 3)
	if got := VertexConnectivity(dis, 5); got != 0 {
		t.Fatalf("κ = %d, want 0", got)
	}
	// Articulated: 1.
	art := graph.NewGraph(5)
	art.AddSimple(0, 1)
	art.AddSimple(1, 2)
	art.AddSimple(0, 2)
	art.AddSimple(2, 3)
	art.AddSimple(3, 4)
	art.AddSimple(2, 4)
	if got := VertexConnectivity(art, 5); got != 1 {
		t.Fatalf("κ = %d, want 1", got)
	}
	// Single edge (n = 2 convention).
	two := graph.NewGraph(2)
	two.AddSimple(0, 1)
	if got := VertexConnectivity(two, 5); got != 1 {
		t.Fatalf("κ(K2) = %d, want 1", got)
	}
}

func TestBenczurKargerSparsifier(t *testing.T) {
	rng := rand.New(rand.NewPCG(50, 1))
	h := randomHypergraph(rng, 14, 2, 70)
	sp := BenczurKargerSparsifier(h, 0.5, 2, rng)
	// Subgraph (support-wise).
	for _, e := range sp.Edges() {
		if !h.Has(e) {
			t.Fatalf("BK sparsifier fabricated %v", e)
		}
	}
	// Cut quality on sampled cuts: generous band for one sample at small c.
	for trial := 0; trial < 1000; trial++ {
		mask := rng.Uint64()
		inS := func(v int) bool { return mask&(1<<uint(v%14)) != 0 }
		o, g := h.CutWeight(inS), sp.CutWeight(inS)
		if o == 0 {
			if g != 0 {
				t.Fatal("BK invents weight on empty cut")
			}
			continue
		}
		r := float64(g) / float64(o)
		if r < 0.2 || r > 3.0 {
			t.Fatalf("BK cut ratio %.2f (o=%d g=%d)", r, o, g)
		}
	}
}

func TestBenczurKargerExpectationPreserved(t *testing.T) {
	// Average total weight over many seeds tracks the true edge mass.
	rng := rand.New(rand.NewPCG(51, 1))
	h := randomHypergraph(rng, 12, 2, 50)
	var sum float64
	const trials = 60
	for i := 0; i < trials; i++ {
		sp := BenczurKargerSparsifier(h, 0.5, 1, rand.New(rand.NewPCG(uint64(i), 2)))
		sum += float64(sp.TotalWeight())
	}
	mean := sum / trials
	truth := float64(h.TotalWeight())
	if mean < 0.8*truth || mean > 1.2*truth {
		t.Fatalf("mean sparsifier weight %.1f far from true %f", mean, truth)
	}
}

func TestBenczurKargerCompresses(t *testing.T) {
	// On a clique with a large ε the sparsifier must be much smaller.
	rng := rand.New(rand.NewPCG(52, 1))
	h := graph.NewGraph(20)
	for u := 0; u < 20; u++ {
		for v := u + 1; v < 20; v++ {
			h.AddSimple(u, v)
		}
	}
	sp := BenczurKargerSparsifier(h, 1.0, 1, rng)
	if sp.EdgeCount() >= h.EdgeCount()/2 {
		t.Fatalf("BK kept %d/%d edges — no compression", sp.EdgeCount(), h.EdgeCount())
	}
}

func TestSparseCertificateSkeletonProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(60, 1))
	for trial := 0; trial < 15; trial++ {
		h := randomHypergraph(rng, 10, 3, 20)
		k := 1 + trial%4
		cert := SparseCertificate(h, k)
		// Subgraph and cut preservation up to k.
		for _, e := range cert.Edges() {
			if !h.Has(e) {
				t.Fatalf("certificate fabricated %v", e)
			}
		}
		for mask := 1; mask < 1<<9; mask++ {
			inS := func(v int) bool { return mask&(1<<uint(v)) != 0 }
			orig := h.CutWeight(inS)
			got := cert.CutWeight(inS)
			want := orig
			if want > int64(k) {
				want = int64(k)
			}
			if got < want {
				t.Fatalf("trial %d k=%d: certificate cut %d < min(%d, k)", trial, k, got, orig)
			}
		}
		if cert.EdgeCount() > k*(h.N()-1) {
			t.Fatalf("certificate too large: %d > k(n-1)", cert.EdgeCount())
		}
	}
}

func TestKargerMatchesMAOrdering(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 1))
	for trial := 0; trial < 15; trial++ {
		h := randomHypergraph(rng, 9, 3, 14)
		want, _, err := GlobalMinCutAll(h)
		if err != nil {
			t.Fatal(err)
		}
		got, side := KargerMinCut(h, 200, rng)
		if got != want {
			t.Fatalf("trial %d: Karger %d, MA-ordering %d", trial, got, want)
		}
		if want > 0 {
			inSide := map[int]bool{}
			for _, v := range side {
				inSide[v] = true
			}
			if w := h.CutWeightSet(inSide); w != got {
				t.Fatalf("trial %d: witness side cuts %d, reported %d", trial, w, got)
			}
		}
	}
}

func TestKargerIsolatedVertex(t *testing.T) {
	h := graph.NewGraph(4)
	h.AddSimple(0, 1)
	h.AddSimple(1, 2)
	// Vertex 3 isolated: cut 0.
	got, side := KargerMinCut(h, 10, rand.New(rand.NewPCG(1, 1)))
	if got != 0 || len(side) != 1 || side[0] != 3 {
		t.Fatalf("Karger = (%d, %v), want (0, [3])", got, side)
	}
}

func TestVertexConnectivityDropMatchesRestrictOnGraphs(t *testing.T) {
	rng := rand.New(rand.NewPCG(70, 1))
	for trial := 0; trial < 10; trial++ {
		h := randomHypergraph(rng, 7, 2, 10)
		a := VertexConnectivity(h, 6)
		b := VertexConnectivityDrop(h, 6)
		if a != b {
			t.Fatalf("trial %d: restrict %d != drop %d on a graph", trial, a, b)
		}
	}
}

func TestVertexConnectivityDropHypergraph(t *testing.T) {
	// Two 3-edge "triangles" sharing vertex 3: drop semantics κ = 1
	// (removing 3 kills both bridging edges).
	h := graph.MustHypergraph(7, 3)
	h.AddSimple(0, 1, 2)
	h.AddSimple(1, 2, 3)
	h.AddSimple(3, 4, 5)
	h.AddSimple(4, 5, 6)
	if got := VertexConnectivityDrop(h, 6); got != 1 {
		t.Fatalf("drop κ = %d, want 1", got)
	}
	// Under restrict semantics removing 3 leaves {1,2} and {4,5} each
	// connected by their surviving hyperedges but in separate components,
	// so it is also 1 — but the two semantics can differ in general:
	// a single spanning hyperedge makes restrict κ huge while drop κ is 1.
	full := graph.MustHypergraph(5, 5)
	full.AddSimple(0, 1, 2, 3, 4)
	if got := VertexConnectivityDrop(full, 4); got != 1 {
		t.Fatalf("single-hyperedge drop κ = %d, want 1", got)
	}
	if got := VertexConnectivity(full, 4); got != 4 {
		t.Fatalf("single-hyperedge restrict κ = %d, want 4 (capped n-1)", got)
	}
}
