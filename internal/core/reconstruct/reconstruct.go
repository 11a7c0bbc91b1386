// Package reconstruct implements the paper's Section 4: reconstructing
// cut-degenerate hypergraphs — and, more generally, the light-edge set
// light_k(G) — from vertex-based linear sketches (Theorem 15), plus the
// Becker et al. d-degenerate reconstruction as the baseline it strictly
// generalizes.
//
// The light_k recursion is E_i = {e : λ_e(G − E_1 − … − E_{i−1}) ≤ k} and
// light_k(G) = ∪ E_i. The sketch is a single (k+1)-skeleton sketch (a
// sketch.SkeletonSketch with K = k+1, from which k is read); each round
// decodes a (k+1)-skeleton of the current graph (the already
// identified E_j peeled off by linearity), finds its weak edges — by
// Lemma 12 exactly E_i — and continues. Because the E_i are determined by
// the input graph alone (not by sketch randomness), reusing the same
// sketch across rounds is a *valid* union bound, in contrast to the
// within-skeleton peeling that needs independent layers (Section 4.2; the
// distinction is exercised by experiment E10).
package reconstruct

import (
	"errors"
	"fmt"
	"log/slog"

	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/obs"
	"graphsketch/internal/sketch"
)

// ErrIncomplete is returned by Reconstruct when the graph was not
// k-cut-degenerate: light_k(G) was recovered but edges remain beyond it.
var ErrIncomplete = errors.New("reconstruct: graph is not k-cut-degenerate; recovered light_k only")

// LightEdges recovers light_k(G − sub) from sk, a (k+1)-skeleton sketch
// of G (k = sk.K() − 1 ≥ 1), for a known unit-weight subgraph sub peeled
// from a clone of sk by linearity (a nil sub means light_k(G)); sk itself
// is left as it was. Each round decodes a (k+1)-skeleton of the graph
// minus everything recovered so far, extracts its weak edges (λ_e ≤ k,
// which Lemma 12 certifies equals the true E_i), subtracts them, and
// repeats; at most n rounds are needed since every nonempty E_i splits
// off components. The sparsifier uses sub to compute F_i = light_k(G_i − F_0 − … − F_{i−1})
// from the level-i sketch. The peel trace hangs under parent (nil starts
// a fresh trace): each round's skeleton decode becomes a child subtree of
// the light_edges span.
func LightEdges(parent *obs.Span, sk *sketch.SkeletonSketch, sub *graph.Hypergraph) (*graph.Hypergraph, error) {
	k := sk.K() - 1
	if k < 1 {
		return nil, fmt.Errorf("reconstruct: light_k needs a (k+1)-skeleton with k >= 1, got %d layers", sk.K())
	}
	sp := parent.Child(lightEdgesSpan)
	defer sp.End(slog.Int("k", k))
	dom := sk.Domain()
	light := graph.MustHypergraph(dom.N(), dom.R())
	work, err := minus(sk, sub)
	if err != nil {
		return nil, err
	}
	for round := 0; round < dom.N(); round++ {
		skel, err := work.Decode(sp)
		if err != nil {
			return nil, fmt.Errorf("reconstruct: round %d: %w", round, err)
		}
		weak := graphalg.WeakEdges(skel, int64(k))
		if len(weak) == 0 {
			rm.peelRounds.Observe(float64(round))
			sp.SetAttrs(slog.Int("rounds", round))
			return light, nil
		}
		peeled := graph.MustHypergraph(dom.N(), dom.R())
		for _, e := range weak {
			peeled.MustAddEdge(e, 1)
			light.MustAddEdge(e, 1)
		}
		if err := work.UpdateGraph(peeled, -1); err != nil {
			return nil, err
		}
	}
	return light, nil
}

// Reconstruct returns the full edge set of G from sk, a (k+1)-skeleton
// sketch of G (k = sk.K() − 1), when G is k-cut-degenerate
// (light_k(G) = E). If edges remain beyond light_k, it returns the
// recovered light set together with ErrIncomplete — detected via the
// residual skeleton being nonempty.
func Reconstruct(sk *sketch.SkeletonSketch) (*graph.Hypergraph, error) {
	light, err := LightEdges(nil, sk, nil)
	if err != nil {
		return nil, err
	}
	// Residual check: after peeling light_k, a skeleton of the remainder
	// must be empty iff the reconstruction is complete.
	rest, err := SkeletonMinus(nil, sk, light)
	if err != nil {
		return nil, err
	}
	if rest.EdgeCount() != 0 {
		return light, ErrIncomplete
	}
	return light, nil
}

// SkeletonMinus decodes a skeleton of G − sub from sk, a skeleton sketch
// of G, for a known unit-weight subgraph sub (nil means G), with the
// decode trace hung under parent (nil starts a fresh trace). The residual
// checks of Reconstruct and the sparsifier use this to certify that
// nothing remains.
func SkeletonMinus(parent *obs.Span, sk *sketch.SkeletonSketch, sub *graph.Hypergraph) (*graph.Hypergraph, error) {
	work, err := minus(sk, sub)
	if err != nil {
		return nil, err
	}
	return work.Decode(parent)
}

// minus returns a clone of sk with sub (nil: nothing) subtracted.
func minus(sk *sketch.SkeletonSketch, sub *graph.Hypergraph) (*sketch.SkeletonSketch, error) {
	work := sk.Clone()
	if sub != nil {
		if err := work.UpdateGraph(sub, -1); err != nil {
			return nil, err
		}
	}
	return work, nil
}
