// Package workload generates the graph and hypergraph families the
// experiments run on: random graphs, exactly-k-vertex-connected Harary
// graphs (ground truth for the vertex-connectivity theorems), separator
// constructions with a large edge/vertex connectivity gap, the INDEX
// bipartite graphs behind the paper's lower bounds, cut-degenerate clique
// trees, uniform and planted-cut hypergraphs, and heavy-tailed Chung–Lu
// graphs.
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"

	"graphsketch/internal/graph"
)

// ErdosRenyi returns G(n, p): every pair appears independently with
// probability p.
func ErdosRenyi(rng *rand.Rand, n int, p float64) *graph.Hypergraph {
	h := graph.NewGraph(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				h.AddSimple(u, v)
			}
		}
	}
	return h
}

// Harary returns the Harary graph H_{k,n}: the k-connected graph on n
// vertices with the minimum possible number of edges, ⌈kn/2⌉. Its vertex
// connectivity is exactly k, which makes it the calibration workload for
// the vertex-connectivity experiments (E1, E3). Requires 2 <= k < n (the
// classical family; for k = 1 use a path or tree).
func Harary(n, k int) (*graph.Hypergraph, error) {
	if k < 2 || k >= n {
		return nil, fmt.Errorf("workload: Harary needs 2 <= k < n, got k=%d n=%d", k, n)
	}
	h := graph.NewGraph(n)
	m := k / 2
	for i := 0; i < n; i++ {
		for d := 1; d <= m; d++ {
			addOnce(h, i, (i+d)%n)
		}
	}
	if k%2 == 1 {
		if n%2 == 0 {
			for i := 0; i < n/2; i++ {
				addOnce(h, i, i+n/2)
			}
		} else {
			// Odd k, odd n: the standard construction joins vertex i to
			// i + (n±1)/2 for the first ⌈n/2⌉+1 vertices.
			half := (n + 1) / 2
			for i := 0; i <= n/2; i++ {
				addOnce(h, i, (i+half)%n)
			}
		}
	}
	return h, nil
}

// MustHarary is Harary that panics on error.
func MustHarary(n, k int) *graph.Hypergraph {
	h, err := Harary(n, k)
	if err != nil {
		panic(err)
	}
	return h
}

func addOnce(h *graph.Hypergraph, u, v int) {
	if u == v {
		return
	}
	e := graph.MustEdge(u, v)
	if !h.Has(e) {
		h.MustAddEdge(e, 1)
	}
}

// SharedCliques returns two cliques of size a and b overlapping in s shared
// vertices (s < min(a,b)). Its vertex connectivity is exactly s while its
// edge connectivity is min(a,b)−1 — the paper's motivating gap between the
// two quantities. Vertices 0..s-1 are shared; total n = a + b − s.
func SharedCliques(a, b, s int) (*graph.Hypergraph, error) {
	if s < 1 || s >= a || s >= b {
		return nil, fmt.Errorf("workload: SharedCliques needs 1 <= s < min(a,b)")
	}
	n := a + b - s
	h := graph.NewGraph(n)
	// Clique A: shared 0..s-1 plus s..a-1.
	for u := 0; u < a; u++ {
		for v := u + 1; v < a; v++ {
			addOnce(h, u, v)
		}
	}
	// Clique B: shared 0..s-1 plus a..n-1.
	bVerts := make([]int, 0, b)
	for v := 0; v < s; v++ {
		bVerts = append(bVerts, v)
	}
	for v := a; v < n; v++ {
		bVerts = append(bVerts, v)
	}
	for i := 0; i < len(bVerts); i++ {
		for j := i + 1; j < len(bVerts); j++ {
			addOnce(h, bVerts[i], bVerts[j])
		}
	}
	return h, nil
}

// IndexBipartite builds the lower-bound graph of Theorem 5: a bipartite
// graph on L ∪ R with |L| = k+1 (vertices 0..k) and |R| = n (vertices
// k+1..k+n); edge {l_i, r_j} is present iff bit (i, j) of x is set. Bob's
// completion (connecting R \ {r_j} into a path and removing L \ {l_i}) is
// performed by experiment E2.
func IndexBipartite(x func(i, j int) bool, k, n int) *graph.Hypergraph {
	h := graph.NewGraph(k + 1 + n)
	for i := 0; i <= k; i++ {
		for j := 0; j < n; j++ {
			if x(i, j) {
				addOnce(h, i, k+1+j)
			}
		}
	}
	return h
}

// CliqueTree returns a random tree of cliques: cliques of size q arranged
// in a tree where adjacent cliques share exactly one vertex. The result is
// exactly (q−1)-cut-degenerate (each clique is (q−1)-strong; every induced
// subgraph has a cut of size ≤ q−1) but has minimum degree q−1, so for
// q ≥ 3 it is NOT (q−1)-degenerate in general; it is the natural scaled-up
// family for the reconstruction experiments (E6).
func CliqueTree(rng *rand.Rand, cliques, q int) *graph.Hypergraph {
	if q < 2 {
		panic("workload: CliqueTree needs q >= 2")
	}
	n := cliques*(q-1) + 1
	h := graph.NewGraph(n)
	// Vertex 0 is the root anchor; clique c occupies its anchor plus
	// vertices 1+c*(q-1) .. (c+1)*(q-1).
	anchors := []int{0}
	next := 1
	for c := 0; c < cliques; c++ {
		anchor := anchors[rng.IntN(len(anchors))]
		members := []int{anchor}
		for i := 0; i < q-1; i++ {
			members = append(members, next)
			next++
		}
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				addOnce(h, members[i], members[j])
			}
		}
		// Any member can anchor a future clique.
		anchors = append(anchors, members[1:]...)
	}
	return h
}

// UniformHypergraph returns a random r-uniform hypergraph with m distinct
// hyperedges.
func UniformHypergraph(rng *rand.Rand, n, r, m int) *graph.Hypergraph {
	h := graph.MustHypergraph(n, r)
	guard := 0
	for h.EdgeCount() < m {
		if guard++; guard > 100*m+1000 {
			break // graph saturated
		}
		vs := map[int]bool{}
		for len(vs) < r {
			vs[rng.IntN(n)] = true
		}
		var e []int
		for v := range vs {
			e = append(e, v)
		}
		he := graph.MustEdge(e...)
		if !h.Has(he) {
			h.MustAddEdge(he, 1)
		}
	}
	return h
}

// MixedHypergraph returns a random hypergraph with m distinct hyperedges of
// cardinality uniform in [2, r].
func MixedHypergraph(rng *rand.Rand, n, r, m int) *graph.Hypergraph {
	h := graph.MustHypergraph(n, r)
	guard := 0
	for h.EdgeCount() < m {
		if guard++; guard > 100*m+1000 {
			break
		}
		k := 2 + rng.IntN(r-1)
		vs := map[int]bool{}
		for len(vs) < k {
			vs[rng.IntN(n)] = true
		}
		var e []int
		for v := range vs {
			e = append(e, v)
		}
		he := graph.MustEdge(e...)
		if !h.Has(he) {
			h.MustAddEdge(he, 1)
		}
	}
	return h
}

// PlantedCutHypergraph returns an r-uniform hypergraph on two halves with
// mPerSide edges inside each half and exactly cutSize edges crossing. The
// planted cut is ({0..n/2-1}, rest); for small cutSize it is the global
// minimum cut, giving the sparsifier experiments a known tight cut to
// preserve.
func PlantedCutHypergraph(rng *rand.Rand, n, r, mPerSide, cutSize int) *graph.Hypergraph {
	h := graph.MustHypergraph(n, r)
	half := n / 2
	sample := func(lo, hi int) graph.Hyperedge {
		vs := map[int]bool{}
		for len(vs) < r {
			vs[lo+rng.IntN(hi-lo)] = true
		}
		var e []int
		for v := range vs {
			e = append(e, v)
		}
		return graph.MustEdge(e...)
	}
	for side := 0; side < 2; side++ {
		lo, hi := 0, half
		if side == 1 {
			lo, hi = half, n
		}
		count, guard := 0, 0
		for count < mPerSide && guard < 100*mPerSide+1000 {
			guard++
			e := sample(lo, hi)
			if !h.Has(e) {
				h.MustAddEdge(e, 1)
				count++
			}
		}
	}
	count, guard := 0, 0
	for count < cutSize && guard < 100*cutSize+1000 {
		guard++
		// A crossing edge: at least one endpoint per side.
		vs := map[int]bool{rng.IntN(half): true, half + rng.IntN(n-half): true}
		for len(vs) < r {
			vs[rng.IntN(n)] = true
		}
		var e []int
		for v := range vs {
			e = append(e, v)
		}
		he := graph.MustEdge(e...)
		if !h.Has(he) {
			h.MustAddEdge(he, 1)
			count++
		}
	}
	return h
}

// ChungLu returns a Chung–Lu random graph with expected degrees following a
// power law with exponent gamma and average degree avgDeg — the heavy-tailed
// shape of the paper's motivating web/social graphs.
func ChungLu(rng *rand.Rand, n int, gamma, avgDeg float64) *graph.Hypergraph {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		// Weights ~ (i+1)^(-1/(gamma-1)), normalized to the target
		// average degree.
		w[i] = math.Pow(float64(i+1), -1.0/(gamma-1))
		sum += w[i]
	}
	scale := avgDeg * float64(n) / sum
	for i := range w {
		w[i] *= scale
	}
	total := avgDeg * float64(n)
	h := graph.NewGraph(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := w[u] * w[v] / total
			if p > 1 {
				p = 1
			}
			if rng.Float64() < p {
				addOnce(h, u, v)
			}
		}
	}
	return h
}

// PaperExample returns the 8-vertex graph from the paper's Lemma 10: a
// graph that is 2-cut-degenerate but not 2-degenerate (minimum degree 3).
func PaperExample() *graph.Hypergraph {
	h := graph.NewGraph(8)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if i == 0 && j == 3 {
				continue
			}
			h.AddSimple(i, j)
			h.AddSimple(4+i, 4+j)
		}
	}
	h.AddSimple(0, 4)
	h.AddSimple(3, 7)
	return h
}

// Cycle returns the n-cycle.
func Cycle(n int) *graph.Hypergraph {
	h := graph.NewGraph(n)
	for i := 0; i < n; i++ {
		addOnce(h, i, (i+1)%n)
	}
	return h
}

// Complete returns K_n.
func Complete(n int) *graph.Hypergraph {
	h := graph.NewGraph(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			addOnce(h, u, v)
		}
	}
	return h
}

// PreferentialAttachment returns a Barabási–Albert style graph: vertices
// arrive one at a time and attach to mPer existing vertices chosen
// proportionally to degree (plus one, so isolated seeds can be chosen).
// Produces the hub-heavy degree profile of the paper's motivating web and
// social graphs.
func PreferentialAttachment(rng *rand.Rand, n, mPer int) *graph.Hypergraph {
	if mPer < 1 {
		mPer = 1
	}
	h := graph.NewGraph(n)
	// Repeated-endpoint list: vertex v appears deg(v)+1 times.
	pool := make([]int, 0, 2*n*mPer)
	pool = append(pool, 0)
	for v := 1; v < n; v++ {
		attached := map[int]bool{}
		for len(attached) < mPer && len(attached) < v {
			u := pool[rng.IntN(len(pool))]
			if u == v || attached[u] {
				continue
			}
			attached[u] = true
			addOnce(h, u, v)
			pool = append(pool, u)
		}
		pool = append(pool, v)
	}
	return h
}

// Grid returns the w×h grid graph (vertex (x,y) = y*w + x). Grids have
// vertex connectivity 2 (for w,h >= 2) and small balanced cuts — a shape
// very different from expanders and cliques, useful for exercising the
// sparsifier on sparse structured inputs.
func Grid(w, h int) *graph.Hypergraph {
	g := graph.NewGraph(w * h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := y*w + x
			if x+1 < w {
				addOnce(g, v, v+1)
			}
			if y+1 < h {
				addOnce(g, v, v+w)
			}
		}
	}
	return g
}

// SharedHyperCommunities returns an r-uniform hypergraph made of two dense
// communities that overlap in `overlap` shared vertices; every hyperedge
// lies entirely inside one community, so under drop-incident semantics the
// shared vertex set is a separator (removing it kills every hyperedge
// bridging through it). The hypergraph counterpart of SharedCliques for
// the vertex-connectivity experiments. Community A spans vertices
// [0, side), community B spans [side-overlap, 2*side-overlap).
func SharedHyperCommunities(rng *rand.Rand, side, overlap, r, mPerSide int) *graph.Hypergraph {
	if overlap < 1 || overlap >= side || r > side {
		panic("workload: SharedHyperCommunities needs 1 <= overlap < side and r <= side")
	}
	n := 2*side - overlap
	h := graph.MustHypergraph(n, r)
	addSide := func(lo, hi int) {
		count, guard := 0, 0
		for count < mPerSide && guard < 100*mPerSide+1000 {
			guard++
			vs := map[int]bool{}
			for len(vs) < r {
				vs[lo+rng.IntN(hi-lo)] = true
			}
			var e []int
			for v := range vs {
				e = append(e, v)
			}
			he := graph.MustEdge(e...)
			if !h.Has(he) {
				h.MustAddEdge(he, 1)
				count++
			}
		}
	}
	addSide(0, side)
	addSide(side-overlap, n)
	return h
}
