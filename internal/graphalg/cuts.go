package graphalg

import "graphsketch/internal/graph"

// STEdgeCut returns the minimum total weight of hyperedges crossing a cut
// (S, V\S) with s ∈ S and t ∉ S, computed as a maximum flow on the Lawler
// expansion of the hypergraph (one capacitated node pair per hyperedge).
// The computation stops early at limit: a return value of limit means "at
// least limit". Pass Unbounded for the exact value.
func STEdgeCut(h *graph.Hypergraph, s, t int, limit int64) int64 {
	f := NewFlowNetwork(h.N())
	for _, we := range h.WeightedEdges() {
		in := f.AddNode()
		out := f.AddNode()
		f.AddArc(in, out, we.W)
		for _, v := range we.E {
			f.AddArc(v, in, Unbounded)
			f.AddArc(out, v, Unbounded)
		}
	}
	return f.MaxFlow(s, t, limit)
}

// STVertexCut returns the minimum number of vertices (other than s and t)
// whose removal disconnects s from t, under RestrictEdges semantics: a
// hyperedge keeps connecting its surviving endpoints. If s and t share a
// hyperedge no removal disconnects them and the result is limit. The
// computation stops early at limit.
func STVertexCut(h *graph.Hypergraph, s, t int, limit int64) int64 {
	return vertexFlow(h, s, t, limit, false)
}

// VertexDisjointPaths returns the number of pairwise internally
// vertex-disjoint s–t paths, counting a direct s–t (hyper)edge as one path
// and letting each hyperedge carry at most its weight in paths. This is the
// quantity the Eppstein et al. insert-only algorithm tests. The computation
// stops early at limit.
func VertexDisjointPaths(h *graph.Hypergraph, s, t int, limit int64) int64 {
	return vertexFlow(h, s, t, limit, true)
}

// vertexFlow builds the vertex-split flow network shared by STVertexCut and
// VertexDisjointPaths. Every vertex v ∉ {s,t} becomes an arc v_in→v_out of
// capacity 1; each hyperedge becomes a node pair whose internal arc is
// either unbounded (vertex cuts: hyperedges cannot be removed) or
// capacitated by the edge weight (path counting: each edge carries at most
// one path per unit of weight).
func vertexFlow(h *graph.Hypergraph, s, t int, limit int64, capEdges bool) int64 {
	n := h.N()
	// Node layout: v_in = v, v_out = n + v, hyperedge nodes appended.
	f := NewFlowNetwork(2 * n)
	for v := 0; v < n; v++ {
		if v == s || v == t {
			f.AddArc(v, n+v, Unbounded)
		} else {
			f.AddArc(v, n+v, 1)
		}
	}
	for _, we := range h.WeightedEdges() {
		in := f.AddNode()
		out := f.AddNode()
		if capEdges {
			f.AddArc(in, out, we.W)
		} else {
			f.AddArc(in, out, Unbounded)
		}
		for _, v := range we.E {
			f.AddArc(n+v, in, Unbounded)
			f.AddArc(out, v, Unbounded)
		}
	}
	flow := f.MaxFlow(s, n+t, limit)
	if flow > limit {
		flow = limit
	}
	return flow
}

// LambdaE returns λ_e(h): the minimum cardinality (total weight) of a cut
// that hyperedge e crosses, capped at limit. Every cut crossed by e
// separates some pair of e's endpoints, and every cut separating such a
// pair is crossed by e, so λ_e is the minimum over endpoint pairs of the
// s–t edge cut.
func LambdaE(h *graph.Hypergraph, e graph.Hyperedge, limit int64) int64 {
	best := limit
	for i := 0; i < len(e); i++ {
		for j := i + 1; j < len(e); j++ {
			c := STEdgeCut(h, e[i], e[j], best)
			if c < best {
				best = c
			}
			if best == 0 {
				return 0
			}
		}
	}
	return best
}

// WeakEdges returns the hyperedges e of h with λ_e(h) ≤ k — the first layer
// E_1 of the paper's light_k recursion (Section 4.2.1).
func WeakEdges(h *graph.Hypergraph, k int64) []graph.Hyperedge {
	var out []graph.Hyperedge
	for _, e := range h.Edges() {
		if LambdaE(h, e, k+1) <= k {
			out = append(out, e)
		}
	}
	return out
}

// LightEdges computes light_k(h) by the paper's recursive definition:
// repeatedly remove every edge whose λ_e in the current graph is at most k,
// until none remain. The returned hypergraph contains the removed edges with
// their original weights. This is the offline ground truth; the sketch-based
// reconstruction in internal/core/reconstruct recovers the same set from
// linear measurements.
func LightEdges(h *graph.Hypergraph, k int64) *graph.Hypergraph {
	cur := h.Clone()
	light := graph.MustHypergraph(h.N(), h.R())
	for {
		weak := WeakEdges(cur, k)
		if len(weak) == 0 {
			return light
		}
		for _, e := range weak {
			w := cur.Weight(e)
			light.MustAddEdge(e, w)
			cur.MustAddEdge(e, -w)
		}
	}
}
