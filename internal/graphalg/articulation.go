package graphalg

import "graphsketch/internal/graph"

// ArticulationVertices returns the vertices whose removal (RestrictEdges
// semantics: hyperedges keep connecting their surviving endpoints)
// increases the number of connected components. Computed by Tarjan's
// lowpoint algorithm on the bipartite incidence graph — removing an
// original vertex there removes exactly that vertex while hyperedge nodes
// keep linking the survivors, which is precisely the restrict semantics.
//
// VertexConnectivity uses this as its κ ≤ 1 fast path: the flow-based pair
// scan only runs when the graph is biconnected.
func ArticulationVertices(h *graph.Hypergraph) []int {
	n := h.N()
	edges := h.Edges()
	// Incidence graph nodes: 0..n-1 original, n..n+m-1 hyperedge nodes.
	total := n + len(edges)
	adj := make([][]int, total)
	for i, e := range edges {
		en := n + i
		for _, v := range e {
			adj[v] = append(adj[v], en)
			adj[en] = append(adj[en], v)
		}
	}
	disc := make([]int, total)
	low := make([]int, total)
	for i := range disc {
		disc[i] = -1
	}
	isArt := make([]bool, total)
	timer := 0

	// Iterative Tarjan DFS (recursion depth can hit n+m).
	type frame struct {
		v, parent, idx int
		children       int
	}
	for root := 0; root < total; root++ {
		if disc[root] != -1 {
			continue
		}
		stack := []frame{{v: root, parent: -1}}
		disc[root] = timer
		low[root] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.idx < len(adj[f.v]) {
				u := adj[f.v][f.idx]
				f.idx++
				if u == f.parent {
					continue
				}
				if disc[u] != -1 {
					if disc[u] < low[f.v] {
						low[f.v] = disc[u]
					}
					continue
				}
				f.children++
				disc[u] = timer
				low[u] = timer
				timer++
				stack = append(stack, frame{v: u, parent: f.v})
				continue
			}
			// Post-order: fold into parent.
			done := *f
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				p := &stack[len(stack)-1]
				if low[done.v] < low[p.v] {
					low[p.v] = low[done.v]
				}
				if p.parent != -1 && low[done.v] >= disc[p.v] {
					isArt[p.v] = true
				}
			} else if done.children >= 2 {
				isArt[done.v] = true // root with 2+ DFS children
			}
		}
	}
	var out []int
	for v := 0; v < n; v++ {
		if isArt[v] {
			out = append(out, v)
		}
	}
	return out
}
