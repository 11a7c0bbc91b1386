package graphalg

import "graphsketch/internal/graph"

// Adjacent reports whether u and v share a hyperedge in h.
func Adjacent(h *graph.Hypergraph, u, v int) bool {
	for _, e := range h.Edges() {
		if e.Contains(u) && e.Contains(v) {
			return true
		}
	}
	return false
}

// VertexConnectivity returns κ(h): the minimum number of vertices whose
// removal (RestrictEdges semantics) disconnects the remaining vertices,
// capped at limit. For a complete (hyper)graph on n vertices it returns
// min(n−1, limit), the conventional value. A disconnected hypergraph has
// κ = 0.
//
// The computation follows the classical Even–Tarjan pattern: κ equals the
// minimum s–t vertex cut over non-adjacent pairs, and it suffices to try
// s ∈ {v_0, …, v_best} against all t, shrinking best as smaller cuts are
// found — any optimal separator of size κ ≤ best must exclude one of the
// first best+1 vertices.
func VertexConnectivity(h *graph.Hypergraph, limit int64) int64 {
	n := h.N()
	if n <= 1 {
		return 0
	}
	// Fast paths for κ ≤ 1: linear-time component and articulation checks
	// dispose of most decoded-H instances before any flow runs.
	if !Connected(h) {
		return 0
	}
	if limit >= 1 && len(ArticulationVertices(h)) > 0 {
		return 1
	}
	best := int64(n - 1)
	if limit < best {
		best = limit
	}
	if best <= 1 {
		return best // connected and biconnected: κ ≥ 2 ≥ limit
	}
	adj := adjacencyBitsets(h)
	for s := 0; int64(s) <= best && s < n; s++ {
		for t := 0; t < n; t++ {
			if t == s || adj[s][t/64]&(1<<uint(t%64)) != 0 {
				continue
			}
			c := STVertexCut(h, s, t, best)
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

// adjacencyBitsets returns, for each vertex, a bitset of the vertices it
// shares a hyperedge with.
func adjacencyBitsets(h *graph.Hypergraph) [][]uint64 {
	n := h.N()
	words := (n + 63) / 64
	adj := make([][]uint64, n)
	for v := range adj {
		adj[v] = make([]uint64, words)
	}
	for _, e := range h.Edges() {
		for _, u := range e {
			for _, v := range e {
				if u != v {
					adj[u][v/64] |= 1 << uint(v%64)
				}
			}
		}
	}
	return adj
}

// DisconnectsQuery reports whether removing the vertex set S (RestrictEdges
// semantics) leaves the remaining vertices of h disconnected. This is the
// ground-truth oracle for the paper's Theorem 4 query structure. Removing
// all but one (or zero) vertices counts as not disconnecting.
func DisconnectsQuery(h *graph.Hypergraph, s map[int]bool) bool {
	return DisconnectsQueryMode(h, s, graph.RestrictEdges)
}

// DisconnectsQueryMode is DisconnectsQuery with an explicit vertex-deletion
// semantics; the two modes coincide for ordinary graphs.
func DisconnectsQueryMode(h *graph.Hypergraph, s map[int]bool, mode graph.VertexDeletionMode) bool {
	remaining := 0
	for v := 0; v < h.N(); v++ {
		if !s[v] {
			remaining++
		}
	}
	if remaining <= 1 {
		return false
	}
	keep := func(v int) bool { return !s[v] }
	if mode == graph.DropIncident {
		// Deleting S drops every hyperedge that touches S, so the
		// remaining vertices' components are those of the hyperedges S
		// misses: union them in place instead of building h − S, which
		// clones every kept hyperedge into a new map for each query.
		d := NewDSU(h.N())
		h.EachEdge(func(e graph.Hyperedge) {
			for _, v := range e {
				if s[v] {
					return
				}
			}
			for i := 1; i < len(e); i++ {
				d.Union(e[0], e[i])
			}
		})
		return !oneComponent(d, h.N(), keep)
	}
	return !ConnectedOn(h.RemoveVertices(func(v int) bool { return s[v] }, mode), keep)
}

// VertexConnectivityDrop computes the exact vertex connectivity of a
// hypergraph under DropIncident semantics — deleting a vertex removes
// every hyperedge touching it — by exhaustive search over removal sets.
// Unlike the RestrictEdges value (which reduces to maximum flow), the
// drop-semantics cut is set-cover-like and has no known flow formulation,
// so this oracle is exponential and intended for ground truth at small n
// (the vertexconn hypergraph experiments and tests). For ordinary graphs
// the two semantics coincide; prefer VertexConnectivity there.
func VertexConnectivityDrop(h *graph.Hypergraph, limit int64) int64 {
	n := h.N()
	if n <= 1 {
		return 0
	}
	best := int64(n - 1)
	if limit < best {
		best = limit
	}
	// Breadth-first over removal-set sizes so we can stop at the first
	// size that disconnects.
	var sets func(start, remaining int, cur []int) bool
	del := make([]bool, n)
	disconnectsNow := func() bool {
		return DisconnectsQueryMode(h, boolsToSet(del), graph.DropIncident)
	}
	sets = func(start, remaining int, cur []int) bool {
		if remaining == 0 {
			return disconnectsNow()
		}
		for v := start; v < n; v++ {
			del[v] = true
			if sets(v+1, remaining-1, append(cur, v)) {
				del[v] = false
				return true
			}
			del[v] = false
		}
		return false
	}
	for size := int64(0); size < best; size++ {
		if sets(0, int(size), nil) {
			return size
		}
	}
	return best
}

func boolsToSet(del []bool) map[int]bool {
	s := map[int]bool{}
	for v, d := range del {
		if d {
			s[v] = true
		}
	}
	return s
}
