// Package reconstruct implements the paper's Section 4: reconstructing
// cut-degenerate hypergraphs — and, more generally, the light-edge set
// light_k(G) — from vertex-based linear sketches (Theorem 15), plus the
// Becker et al. d-degenerate reconstruction as the baseline it strictly
// generalizes.
//
// The light_k recursion is E_i = {e : λ_e(G − E_1 − … − E_{i−1}) ≤ k} and
// light_k(G) = ∪ E_i. The sketch is a single (k+1)-skeleton sketch stack;
// each round decodes a (k+1)-skeleton of the current graph (the already
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

	"graphsketch"
	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/obs"
	"graphsketch/internal/sketch"
)

// ErrIncomplete is returned by Reconstruct when the graph was not
// k-cut-degenerate: light_k(G) was recovered but edges remain beyond it.
var ErrIncomplete = errors.New("reconstruct: graph is not k-cut-degenerate; recovered light_k only")

// Sketch reconstructs light_k(G) for simple (unit-weight) hypergraphs.
type Sketch struct {
	p        Params // defaulted construction parameters (wire identity)
	k        int
	skeleton *sketch.SkeletonSketch
}

// Params configures a light_k reconstruction sketch.
type Params struct {
	// N is the vertex count; R the maximum hyperedge cardinality (2 for
	// ordinary graphs; defaults to 2).
	N, R int
	// K is the cut-degeneracy parameter: the sketch recovers light_K(G),
	// and reconstructs G exactly when G is K-cut-degenerate.
	K int
	// Spanning configures the underlying spanning sketches.
	Spanning sketch.SpanningConfig
	// Seed derives all randomness.
	Seed uint64
}

func (p Params) withDefaults() (Params, error) {
	if p.R < 2 {
		p.R = 2
	}
	if p.K < 1 {
		return p, fmt.Errorf("reconstruct: need K >= 1, got %d", p.K)
	}
	return p, nil
}

// New returns a light_K reconstruction sketch: a (K+1)-skeleton sketch
// stack of size O(K·n·polylog n) words.
func New(p Params) (*Sketch, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	dom, err := graph.NewDomain(p.N, p.R)
	if err != nil {
		return nil, err
	}
	return &Sketch{p: p, k: p.K, skeleton: sketch.NewSkeleton(p.Seed, dom, p.K+1, p.Spanning)}, nil
}

// Update applies a hyperedge insertion (+1) or deletion (−1).
func (s *Sketch) Update(e graph.Hyperedge, delta int64) error {
	return s.skeleton.Update(e, delta)
}

// UpdateGraph applies every edge of h scaled by scale.
func (s *Sketch) UpdateGraph(h *graph.Hypergraph, scale int64) error {
	return s.skeleton.UpdateGraph(h, scale)
}

// UpdateBatch applies a slice of weighted updates in order.
func (s *Sketch) UpdateBatch(batch []graph.WeightedEdge) error {
	return s.skeleton.UpdateBatch(batch)
}

// UpdateEdgeRange applies the update restricted to endpoints in [lo, hi);
// see sketch.SpanningSketch.UpdateEdgeRange for the sharding contract.
func (s *Sketch) UpdateEdgeRange(e graph.Hyperedge, delta int64, lo, hi int) error {
	return s.skeleton.UpdateEdgeRange(e, delta, lo, hi)
}

// UpdateBatchRange applies the batch restricted to endpoints in [lo, hi);
// see graphsketch.Sharded.
func (s *Sketch) UpdateBatchRange(batch []graph.WeightedEdge, lo, hi int) error {
	return s.skeleton.UpdateBatchRange(batch, lo, hi)
}

// NumVertices returns n, the vertex space the sketch shards over.
func (s *Sketch) NumVertices() int { return s.skeleton.NumVertices() }

// AddScaled adds scale copies of o into s (same seed/domain/k).
func (s *Sketch) AddScaled(o *Sketch, scale int64) error {
	return s.skeleton.AddScaled(o.skeleton, scale)
}

// Merge adds another reconstruction sketch with identical parameters
// (graphsketch.Mergeable).
func (s *Sketch) Merge(o graphsketch.Sketch) error {
	so, ok := o.(*Sketch)
	if !ok {
		return graphsketch.ErrMergeMismatch
	}
	return s.AddScaled(so, 1)
}

var _ graphsketch.Sharded = (*Sketch)(nil)

// LightEdges recovers light_k(G − sub) for a known unit-weight subgraph
// sub, peeled from the sketch by linearity (a nil sub means light_k(G)).
// Each round decodes a (k+1)-skeleton of the graph minus everything
// recovered so far, extracts its weak edges (λ_e ≤ k, which Lemma 12
// certifies equals the true E_i), subtracts them, and repeats; at most n
// rounds are needed since every nonempty E_i splits off components. The
// sparsifier uses sub to compute F_i = light_k(G_i − F_0 − … − F_{i−1})
// from the level-i sketch. The peel trace hangs under parent (nil starts
// a fresh trace): each round's skeleton decode becomes a child subtree of
// the light_edges span.
func (s *Sketch) LightEdges(parent *obs.Span, sub *graph.Hypergraph) (*graph.Hypergraph, error) {
	sp := parent.Child(lightEdgesSpan)
	defer sp.End(slog.Int("k", s.k))
	dom := s.skeleton.Domain()
	light := graph.MustHypergraph(dom.N(), dom.R())
	work := s.skeleton.Clone()
	if sub != nil {
		if err := work.UpdateGraph(sub, -1); err != nil {
			return nil, err
		}
	}
	for round := 0; round < dom.N(); round++ {
		skel, err := work.Decode(sp)
		if err != nil {
			return nil, fmt.Errorf("reconstruct: round %d: %w", round, err)
		}
		weak := graphalg.WeakEdges(skel, int64(s.k))
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

// Reconstruct returns the full edge set of G when G is k-cut-degenerate
// (light_k(G) = E). If edges remain beyond light_k, it returns the
// recovered light set together with ErrIncomplete — detected via the
// residual skeleton being nonempty.
func (s *Sketch) Reconstruct() (*graph.Hypergraph, error) {
	light, err := s.LightEdges(nil, nil)
	if err != nil {
		return nil, err
	}
	// Residual check: after peeling light_k, a skeleton of the remainder
	// must be empty iff the reconstruction is complete.
	rest, err := s.SkeletonMinus(nil, light)
	if err != nil {
		return nil, err
	}
	if rest.EdgeCount() != 0 {
		return light, ErrIncomplete
	}
	return light, nil
}

// SkeletonMinus decodes a (k+1)-skeleton of G − sub for a known
// unit-weight subgraph sub (nil means G), with the decode trace hung under
// parent (nil starts a fresh trace). The residual checks of Reconstruct
// and the sparsifier use this to certify that nothing remains.
func (s *Sketch) SkeletonMinus(parent *obs.Span, sub *graph.Hypergraph) (*graph.Hypergraph, error) {
	work := s.skeleton.Clone()
	if sub != nil {
		if err := work.UpdateGraph(sub, -1); err != nil {
			return nil, err
		}
	}
	return work.Decode(parent)
}

// K returns the degeneracy parameter.
func (s *Sketch) K() int { return s.k }

// Words returns the memory footprint in 64-bit words.
func (s *Sketch) Words() int { return s.skeleton.Words() }

// SharedWords returns the interned-randomness portion of Words;
// Words() == SharedWords() + Σ_v VertexWords(v).
func (s *Sketch) SharedWords() int { return s.skeleton.SharedWords() }

// VertexWords returns vertex v's share (simultaneous-communication message
// size).
func (s *Sketch) VertexWords(v int) int { return s.skeleton.VertexWords(v) }

// Skeleton returns the underlying (k+1)-skeleton sketch, whose vertex
// shares are this sketch's state. It is the sketch's own store: callers
// must treat it as read-only.
func (s *Sketch) Skeleton() *sketch.SkeletonSketch { return s.skeleton }
