// Package edgeconn derives edge-connectivity answers from a decoded
// k-skeleton (Theorem 14; see sketch.SkeletonSketch). For a k-skeleton H'
// of G, |δ_H'(S)| ≥ min(|δ_G(S)|, k) for every cut while H' ⊆ G, so
//
//	λ(H') = λ(G)   whenever λ(G) < k,   and   λ(H') ≥ k otherwise,
//
// which makes a single skeleton sketch a one-pass dynamic-stream structure
// for: testing k-edge-connectivity, computing the exact global minimum cut
// below k (with a witness side), and answering capped s–t cut queries
// (graphalg.STEdgeCut on the skeleton, capped at k; graphalg.Connected
// answers the k = 1 question, since every skeleton contains a spanning
// graph). Applied to hypergraphs this is the edge-connectivity counterpart
// of the paper's Theorem 13 ("the first dynamic graph algorithm for
// hypergraph connectivity"), and the baseline the vertex-connectivity
// results of Section 3 are contrasted against: edge connectivity
// upper-bounds vertex connectivity but can be arbitrarily larger (see
// workload.SharedCliques).
package edgeconn

import (
	"fmt"

	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
)

// Connectivity returns min(λ(G), k) for the graph G whose k-skeleton skel
// is, together with a witness side when the value is below k: the side
// realizes a minimum cut of G. When the returned value equals k the side is
// nil and λ(G) ≥ k. The answer is exact (up to the skeleton's decode
// failure probability): a cut of G below k survives into the skeleton with
// its exact weight, and the skeleton is a subgraph, so it never exaggerates
// connectivity.
func Connectivity(skel *graph.Hypergraph, k int) (int64, []int, error) {
	if k < 1 {
		return 0, nil, fmt.Errorf("edgeconn: need k >= 1, got %d", k)
	}
	lambda, side, err := graphalg.GlobalMinCutAll(skel)
	if err != nil {
		return 0, nil, err
	}
	if lambda >= int64(k) {
		return int64(k), nil, nil
	}
	return lambda, side, nil
}
