package sketch

import (
	"fmt"
	"log/slog"

	"graphsketch"
	"graphsketch/internal/graph"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/obs"
	"graphsketch/internal/par"
)

// SkeletonSketch is the paper's Theorem 14 structure: k independent
// spanning-graph sketches A¹, …, A^k from which a k-skeleton — a subgraph
// H' with |δ_H'(S)| ≥ min(|δ_H(S)|, k) for every cut — is decoded by
// peeling: F_i is a spanning graph of G − F_1 − … − F_{i−1}, obtained from
// A^i(G) − Σ_j A^i(F_j) by linearity.
//
// The independence of the k sketches is essential and deliberate: the F_j
// depend on sketch randomness, so re-using a single sketch across peels
// would make the union bound invalid (Section 4.2 of the paper; experiment
// E10 demonstrates the failure empirically).
type SkeletonSketch struct {
	dom    graph.Domain
	k      int
	seed   uint64
	layers []*SpanningSketch
}

// SkeletonParams configures a k-skeleton sketch, following the
// repository-wide Params-struct constructor convention.
type SkeletonParams struct {
	// N is the vertex count; R the maximum hyperedge cardinality
	// (defaults to 2).
	N, R int
	// K is the skeleton's connectivity parameter (number of independent
	// spanning-sketch layers); must be at least 1.
	K int
	// Spanning configures the per-layer spanning sketches.
	Spanning SpanningConfig
	// Seed derives all randomness.
	Seed uint64
}

func (p SkeletonParams) withDefaults() (SkeletonParams, error) {
	if p.R < 2 {
		p.R = 2
	}
	if p.K < 1 {
		return p, fmt.Errorf("sketch: skeleton needs K >= 1, got %d", p.K)
	}
	return p, nil
}

// NewSkeletonSketch returns an empty k-skeleton sketch for hypergraphs on
// p.N vertices with cardinality at most p.R.
func NewSkeletonSketch(p SkeletonParams) (*SkeletonSketch, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	dom, err := graph.NewDomain(p.N, p.R)
	if err != nil {
		return nil, err
	}
	ss := hashutil.NewSeedStream(p.Seed ^ 0x5ce1e7_0a)
	layers := make([]*SpanningSketch, p.K)
	for i := range layers {
		layers[i] = NewSpanning(ss.At(uint64(i)), dom, p.Spanning)
	}
	return &SkeletonSketch{dom: dom, k: p.K, seed: p.Seed, layers: layers}, nil
}

// Update applies a weighted hyperedge update to every layer.
func (s *SkeletonSketch) Update(e graph.Hyperedge, delta int64) error {
	for _, l := range s.layers {
		if err := l.Update(e, delta); err != nil {
			return err
		}
	}
	return nil
}

// UpdateEdgeRange applies the update to every layer, restricted to
// endpoints in [lo, hi); see SpanningSketch.UpdateEdgeRange for the
// sharding contract.
func (s *SkeletonSketch) UpdateEdgeRange(e graph.Hyperedge, delta int64, lo, hi int) error {
	for _, l := range s.layers {
		if err := l.UpdateEdgeRange(e, delta, lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// UpdateBatch applies a slice of weighted updates in order to every layer.
func (s *SkeletonSketch) UpdateBatch(batch []graph.WeightedEdge) error {
	return s.UpdateBatchRange(batch, 0, s.dom.N())
}

// UpdateBatchRange applies the batch restricted to endpoints in [lo, hi).
func (s *SkeletonSketch) UpdateBatchRange(batch []graph.WeightedEdge, lo, hi int) error {
	for _, we := range batch {
		if err := s.UpdateEdgeRange(we.E, we.W, lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// UpdateGraph applies every weighted edge of h, scaled by scale, to every
// layer. With scale = −1 this subtracts a known subgraph — the operation
// that lets light_k reconstruction re-use one skeleton sketch across its
// (deterministically defined) peeling rounds.
func (s *SkeletonSketch) UpdateGraph(h *graph.Hypergraph, scale int64) error {
	for _, l := range s.layers {
		if err := l.UpdateGraph(h, scale); err != nil {
			return err
		}
	}
	return nil
}

// AddScaled adds scale copies of o into s.
func (s *SkeletonSketch) AddScaled(o *SkeletonSketch, scale int64) error {
	switch {
	case s.seed != o.seed:
		return ErrSeedMismatch
	case s.dom != o.dom:
		return ErrDomainMismatch
	case s.k != o.k:
		return ErrConfigMismatch
	}
	for i := range s.layers {
		if err := s.layers[i].AddScaled(o.layers[i], scale); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a deep copy.
func (s *SkeletonSketch) Clone() *SkeletonSketch {
	layers := make([]*SpanningSketch, len(s.layers))
	for i := range layers {
		layers[i] = s.layers[i].Clone()
	}
	return &SkeletonSketch{dom: s.dom, k: s.k, seed: s.seed, layers: layers}
}

// Decode decodes a k-skeleton of the sketched hypergraph, with the decode
// span hung under parent (nil starts a fresh trace): the union of forests
// F_1 ∪ … ∪ F_k where F_i spans G − F_1 − … − F_{i−1}. Layer i's sketch
// is peeled by linear subtraction of the already-decoded forests.
//
// The layer decodes are the sequential critical path; the rest runs beside
// them. While layer i decodes, a second goroutine clones layer i+1 and
// subtracts F_1, …, F_{i−1} from it, so only F_i's subtraction waits for
// the decode. At most two clones are live, and with one CPU the same work
// runs in the serial order. Field addition commutes, so every clone's
// state, and hence the skeleton, is exactly the serial peel's. Each layer
// gets its own child span, under which its spanning decode and per-round
// spans nest.
func (s *SkeletonSketch) Decode(parent *obs.Span) (*graph.Hypergraph, error) {
	sp := parent.Child(skeletonSpan)
	defer sp.End(slog.Int("k", s.k), slog.Int("n", s.dom.N()))
	skeleton := graph.MustHypergraph(s.dom.N(), s.dom.R())
	// peeled holds every forest decoded so far, as unit deletions. Forests
	// are edge-disjoint by construction (each layer spans the graph minus
	// all earlier forests).
	var peeled []graph.WeightedEdge
	work := s.layers[0].Clone()
	for i := range s.layers {
		var f *graph.Hypergraph
		var next *SpanningSketch
		err := par.ForEach(0, 2, func(j int) (err error) {
			if j == 0 {
				f, err = decodeLayer(sp, i, work)
			} else if i+1 < len(s.layers) {
				next = s.layers[i+1].Clone()
				err = next.UpdateBatch(peeled)
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("sketch: skeleton layer %d: %w", i, err)
		}
		for _, e := range f.Edges() {
			skeleton.MustAddEdge(e, 1)
			peeled = append(peeled, graph.WeightedEdge{E: e, W: -1})
		}
		if next != nil {
			if err := next.UpdateGraph(f, -1); err != nil {
				return nil, err
			}
		}
		work = next
	}
	return skeleton, nil
}

// decodeLayer runs the spanning decode of one peeled layer under a
// per-layer child span.
func decodeLayer(parent *obs.Span, i int, work *SpanningSketch) (*graph.Hypergraph, error) {
	lsp := parent.Child(skeletonLayerSpan)
	defer lsp.End(slog.Int("layer", i))
	return work.Decode(lsp)
}

// K returns the skeleton's connectivity parameter.
func (s *SkeletonSketch) K() int { return s.k }

// Layers returns the k independent per-layer spanning sketches, in peeling
// order. The slice is the sketch's own backing store — callers must treat
// it as read-only.
func (s *SkeletonSketch) Layers() []*SpanningSketch { return s.layers }

// NumVertices returns n, the vertex space the sketch shards over.
func (s *SkeletonSketch) NumVertices() int { return s.dom.N() }

// Merge adds another skeleton sketch with identical seed, domain, and k
// (graphsketch.Mergeable).
func (s *SkeletonSketch) Merge(o graphsketch.Sketch) error {
	so, ok := o.(*SkeletonSketch)
	if !ok {
		return graphsketch.ErrMergeMismatch
	}
	return s.AddScaled(so, 1)
}

var _ graphsketch.Sharded = (*SkeletonSketch)(nil)

// Domain returns the hyperedge key domain.
func (s *SkeletonSketch) Domain() graph.Domain { return s.dom }

// Words returns the total memory footprint in 64-bit words.
func (s *SkeletonSketch) Words() int {
	w := 0
	for _, l := range s.layers {
		w += l.Words()
	}
	return w
}

// SharedWords returns the interned-randomness portion of Words across all
// layers; Words() == SharedWords() + Σ_v VertexWords(v).
func (s *SkeletonSketch) SharedWords() int {
	w := 0
	for _, l := range s.layers {
		w += l.SharedWords()
	}
	return w
}

// VertexWords returns a single vertex's share of the sketch.
func (s *SkeletonSketch) VertexWords(v int) int {
	w := 0
	for _, l := range s.layers {
		w += l.VertexWords(v)
	}
	return w
}
