package vertexconn

import (
	"fmt"

	"graphsketch"
	"graphsketch/internal/graph"
	"graphsketch/internal/sketch"
)

// Estimator removes Theorem 8's "k is an upper bound on the vertex
// connectivity" precondition by maintaining one Sketch per geometric scale
// k ∈ {1, 2, 4, …, KMax}: every update feeds all scales, and the estimate
// is resolved in post-processing. This costs a factor O(log KMax) in space
// over a single correctly-guessed scale — the standard guess-and-double
// trick the streaming literature applies when a parameter is unknown.
//
// The returned estimate never exceeds κ(G): every per-scale H is a subgraph
// of G, so each per-scale estimate is a valid lower bound, and the maximum
// of valid lower bounds is one too. On the high side, the scale just above
// κ(G) provides the theorem's guarantee.
type Estimator struct {
	scales []*Sketch
	kmax   int
	// seed is the base seed, kept as part of the estimator's wire identity
	// (per-scale seeds are derived from it and are not worth inverting).
	seed uint64
}

// EstimatorParams configures an Estimator.
type EstimatorParams struct {
	// N is the vertex count; R the hyperedge cardinality bound (2 for
	// graphs — estimation requires graphs).
	N, R int
	// KMax is the largest connectivity scale to track; scales are the
	// powers of two up to and including the first ≥ KMax.
	KMax int
	// SubgraphsAt returns the subgraph count for scale k; nil selects
	// a practical default of 24·k·⌈log2 n⌉.
	SubgraphsAt func(k int) int
	// Seed derives all randomness.
	Seed uint64
}

// NewEstimator returns an estimator tracking scales 1, 2, 4, …, ≥ KMax.
func NewEstimator(p EstimatorParams) (*Estimator, error) {
	if p.KMax < 1 {
		return nil, fmt.Errorf("vertexconn: need KMax >= 1, got %d", p.KMax)
	}
	subAt := p.SubgraphsAt
	if subAt == nil {
		logN := 1
		for v := p.N - 1; v > 1; v >>= 1 {
			logN++
		}
		subAt = func(k int) int { return 24 * k * logN }
	}
	est := &Estimator{kmax: p.KMax, seed: p.Seed}
	for k := 1; ; k *= 2 {
		s, err := New(scaleParams(p.N, p.R, k, subAt(k), p.Seed))
		if err != nil {
			return nil, err
		}
		est.scales = append(est.scales, s)
		if k >= p.KMax {
			break
		}
	}
	return est, nil
}

// Update applies a hyperedge insertion (+1) or deletion (−1) to every scale.
func (e *Estimator) Update(edge graph.Hyperedge, delta int64) error {
	for _, s := range e.scales {
		if err := s.Update(edge, delta); err != nil {
			return err
		}
	}
	return nil
}

// Estimate returns the best available lower bound on κ(G): the maximum over
// scales k of min(κ(H_k), 2k) — per-scale estimates are capped at twice the
// scale, past which that scale's subsampling is too aggressive to be
// meaningful. The result is always ≤ κ(G) and, with adequately provisioned
// scales, within the Theorem 8 factor of it.
func (e *Estimator) Estimate() (int64, error) {
	best := int64(0)
	for _, s := range e.scales {
		cap_ := int64(2 * s.Params().K)
		got, err := s.EstimateConnectivity(cap_)
		if err != nil {
			return 0, err
		}
		if got > best {
			best = got
		}
	}
	if best > int64(e.kmax) {
		best = int64(e.kmax)
	}
	return best, nil
}

// UpdateBatch applies a slice of weighted updates in order to every scale.
func (e *Estimator) UpdateBatch(batch []graph.WeightedEdge) error {
	return e.UpdateBatchRange(batch, 0, e.NumVertices())
}

// UpdateBatchRange applies the batch restricted to endpoints in [lo, hi) at
// every scale; see graphsketch.Sharded.
func (e *Estimator) UpdateBatchRange(batch []graph.WeightedEdge, lo, hi int) error {
	for _, s := range e.scales {
		if err := s.UpdateBatchRange(batch, lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// NumVertices returns n, the vertex space the estimator shards over.
func (e *Estimator) NumVertices() int { return e.scales[0].Params().N }

// Merge adds another estimator with identical parameters
// (graphsketch.Mergeable).
func (e *Estimator) Merge(o graphsketch.Sketch) error {
	oe, ok := o.(*Estimator)
	if !ok {
		return graphsketch.ErrMergeMismatch
	}
	if len(e.scales) != len(oe.scales) || e.kmax != oe.kmax {
		return sketch.ErrConfigMismatch
	}
	for i := range e.scales {
		if err := e.scales[i].Merge(oe.scales[i]); err != nil {
			return err
		}
	}
	return nil
}

// ShareParts appends vertex v's parts (sketch.Sharer): its share of every
// scale, in scale order.
func (e *Estimator) ShareParts(dst []sketch.SharePart, v int) []sketch.SharePart {
	for _, s := range e.scales {
		dst = s.ShareParts(dst, v)
	}
	return dst
}

var _ graphsketch.Sharded = (*Estimator)(nil)

// Scales returns the number of maintained scales.
func (e *Estimator) Scales() int { return len(e.scales) }

// Words returns the total memory footprint in 64-bit words.
func (e *Estimator) Words() int {
	w := 0
	for _, s := range e.scales {
		w += s.Words()
	}
	return w
}

// SharedWords returns the interned-randomness portion of Words across all
// scales; the remainder is mutable cell state.
func (e *Estimator) SharedWords() int {
	w := 0
	for _, s := range e.scales {
		w += s.SharedWords()
	}
	return w
}
