package graphalg

import "graphsketch/internal/graph"

// ComponentsOf returns a DSU describing the connected components of h. Two
// vertices are connected if some chain of hyperedges links them (a hyperedge
// connects all of its endpoints). The edges are walked unsorted: the
// partition does not depend on order, but which member represents a set
// does, so callers must use roots only as equality labels.
func ComponentsOf(h *graph.Hypergraph) *DSU {
	d := NewDSU(h.N())
	h.EachEdge(func(e graph.Hyperedge) {
		for i := 1; i < len(e); i++ {
			d.Union(e[0], e[i])
		}
	})
	return d
}

// Connected reports whether h is connected over its full vertex set
// {0, …, n−1}; isolated vertices count as disconnected components.
func Connected(h *graph.Hypergraph) bool {
	return ComponentsOf(h).Components() == 1
}

// ConnectedOn reports whether all vertices for which include returns true
// lie in a single component of h (hyperedges are used in full; callers who
// want to exclude vertices should RemoveVertices first).
func ConnectedOn(h *graph.Hypergraph, include func(v int) bool) bool {
	return oneComponent(ComponentsOf(h), h.N(), include)
}

// oneComponent reports whether the vertices of [0, n) for which include
// returns true lie in one set of d.
func oneComponent(d *DSU, n int, include func(v int) bool) bool {
	root := -1
	for v := 0; v < n; v++ {
		if !include(v) {
			continue
		}
		if root == -1 {
			root = d.Find(v)
		} else if d.Find(v) != root {
			return false
		}
	}
	return true
}

// SpanningForest returns a maximal acyclic (in the DSU sense) subset of h's
// hyperedges: edges are scanned in deterministic order and kept when they
// connect at least two distinct components. The result is a spanning graph
// of h — it preserves connectivity exactly.
func SpanningForest(h *graph.Hypergraph) *graph.Hypergraph {
	out := graph.MustHypergraph(h.N(), h.R())
	d := NewDSU(h.N())
	for _, e := range h.Edges() {
		merged := false
		for i := 1; i < len(e); i++ {
			if d.Union(e[0], e[i]) {
				merged = true
			}
		}
		if merged {
			out.MustAddEdge(e, 1)
		}
	}
	return out
}

// SameComponent reports whether u and v are connected in h.
func SameComponent(h *graph.Hypergraph, u, v int) bool {
	return ComponentsOf(h).Same(u, v)
}
