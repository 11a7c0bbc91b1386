// Package sparsify implements the paper's Section 5: the first dynamic
// graph stream algorithm for hypergraph sparsification (Theorems 19/20),
// which also simplifies earlier dynamic graph sparsification.
//
// The algorithm keeps ℓ = 3·log n nested edge subsamples
// G = G_0 ⊇ G_1 ⊇ … (edge e survives into G_i iff its public geometric
// hash level is at least i), and for each level a light_k reconstruction
// sketch with k = O(ε⁻²(log n + r)). Decoding peels
//
//	F_i = light_k(G_i − F_0 − … − F_{i−1})
//
// level by level: everything that remains after removing the light edges
// lives in components with minimum cut > k, where Karger-style sampling at
// rate 1/2 preserves every cut to (1±ε) (using the Kogan–Krauthgamer
// hypergraph cut-counting bound), so Σ 2^i·F_i is a (1+ε)^ℓ ≈ (1+ε')
// sparsifier of G.
package sparsify

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/bits"

	"graphsketch"
	"graphsketch/internal/core/reconstruct"
	"graphsketch/internal/graph"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/obs"
	"graphsketch/internal/sketch"
)

// Params configures a sparsifier sketch.
type Params struct {
	// N is the vertex count; R the maximum hyperedge cardinality.
	N, R int
	// K is the strength threshold of the per-level light_k sketches. Use
	// TheoryK for the paper's k = c·ε⁻²(log n + r); the experiments chart
	// sparsifier error against this knob directly.
	K int
	// Levels is the number of nested subsamples; defaults to 3·⌈log2 n⌉
	// as in the paper's algorithm.
	Levels int
	// Spanning configures the underlying spanning sketches.
	Spanning sketch.SpanningConfig
	// Seed derives all randomness, including the public edge-level hash.
	Seed uint64
}

// TheoryK returns the paper's threshold k = ⌈c·ε⁻²·(log2 n + r)⌉.
func TheoryK(n, r int, eps float64, c float64) int {
	if c <= 0 {
		c = 1
	}
	return int(math.Ceil(c / (eps * eps) * (math.Log2(float64(n)) + float64(r))))
}

func (p Params) withDefaults() (Params, error) {
	if p.N < 2 {
		return p, fmt.Errorf("sparsify: need N >= 2, got %d", p.N)
	}
	if p.R < 2 {
		p.R = 2
	}
	if p.K < 1 {
		return p, fmt.Errorf("sparsify: need K >= 1, got %d", p.K)
	}
	if p.Levels <= 0 {
		p.Levels = 3 * bits.Len(uint(p.N-1))
	}
	return p, nil
}

// Sketch is the sparsifier sketch: one light_K reconstruction sketch — a
// (K+1)-skeleton sketch — per subsampling level. Total size
// O(ε⁻²·n·polylog n) words at the paper's K.
type Sketch struct {
	p      Params
	dom    graph.Domain
	lh     hashutil.LevelHash
	levels []*sketch.SkeletonSketch
}

// New returns an empty sparsifier sketch.
func New(p Params) (*Sketch, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	dom, err := graph.NewDomain(p.N, p.R)
	if err != nil {
		return nil, err
	}
	ss := hashutil.NewSeedStream(p.Seed)
	s := &Sketch{
		p:   p,
		dom: dom,
		lh:  hashutil.NewLevelHash(ss.At(0), p.Levels),
	}
	s.levels = make([]*sketch.SkeletonSketch, p.Levels+1)
	for i := range s.levels {
		s.levels[i], err = sketch.NewSkeletonSketch(sketch.SkeletonParams{
			N: p.N, R: p.R, K: p.K + 1, Spanning: p.Spanning, Seed: ss.At(uint64(1 + i)),
		})
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// EdgeLevel returns the public geometric level of hyperedge e: e belongs to
// G_i for every i ≤ EdgeLevel(e).
func (s *Sketch) EdgeLevel(e graph.Hyperedge) (int, error) {
	key, err := s.dom.Encode(e)
	if err != nil {
		return 0, err
	}
	return s.lh.Level(key), nil
}

// Update applies a hyperedge insertion (+1) or deletion (−1). The update is
// routed to the sketches of every level the edge survives into; routing is
// deterministic, so deletions cancel exactly.
func (s *Sketch) Update(e graph.Hyperedge, delta int64) error {
	top, err := s.EdgeLevel(e)
	if err != nil {
		return err
	}
	for i := 0; i <= top; i++ {
		if err := s.levels[i].Update(e, delta); err != nil {
			return err
		}
	}
	return nil
}

// ErrResidual is returned when the deepest level still has edges after
// peeling — the sampling depth was insufficient (increase Levels).
var ErrResidual = errors.New("sparsify: residual edges beyond the deepest level")

var decodeSpan = obs.NewSpanKind("sparsify.decode", "Weighted sparsifier decode latency, every level's light-edge peel included")

// Decode decodes the weighted sparsifier Σ 2^i·F_i, with the decode
// trace hung under parent (nil starts a fresh trace): each level's
// light-edge peel becomes a child subtree of the sparsify.decode span.
// Every returned edge is a true edge of G with weight 2^i for the level i
// at which it was peeled.
func (s *Sketch) Decode(parent *obs.Span) (*graph.Hypergraph, error) {
	sp := parent.Child(decodeSpan)
	defer sp.End(slog.Int("levels", s.p.Levels), slog.Int("n", s.p.N))
	out := graph.MustHypergraph(s.p.N, s.p.R) // weighted union
	cum := graph.MustHypergraph(s.p.N, s.p.R) // F_0 ∪ … ∪ F_{i-1}, unit weights
	for i := 0; i <= s.p.Levels; i++ {
		// Peel the already-extracted light edges that live in G_i.
		sub := graph.MustHypergraph(s.p.N, s.p.R)
		for _, e := range cum.Edges() {
			lv, err := s.EdgeLevel(e)
			if err != nil {
				return nil, err
			}
			if lv >= i {
				sub.MustAddEdge(e, 1)
			}
		}
		fi, err := reconstruct.LightEdges(sp, s.levels[i], sub)
		if err != nil {
			return nil, fmt.Errorf("sparsify: level %d: %w", i, err)
		}
		if fi.EdgeCount() == 0 && i == s.p.Levels {
			break
		}
		weight := int64(1) << uint(i)
		for _, e := range fi.Edges() {
			out.MustAddEdge(e, weight)
			cum.MustAddEdge(e, 1)
		}
	}
	// Residual check: the deepest level minus everything extracted must be
	// empty, else deeper sampling was needed.
	sub := graph.MustHypergraph(s.p.N, s.p.R)
	for _, e := range cum.Edges() {
		lv, err := s.EdgeLevel(e)
		if err != nil {
			return nil, err
		}
		if lv >= s.p.Levels {
			sub.MustAddEdge(e, 1)
		}
	}
	rest, err := reconstruct.SkeletonMinus(sp, s.levels[s.p.Levels], sub)
	if err != nil {
		return nil, err
	}
	if rest.EdgeCount() != 0 {
		return out, ErrResidual
	}
	return out, nil
}

// UpdateBatch applies a slice of weighted updates in order.
func (s *Sketch) UpdateBatch(batch []graph.WeightedEdge) error {
	return s.UpdateBatchRange(batch, 0, s.p.N)
}

// UpdateBatchRange applies the batch restricted to endpoints in [lo, hi);
// see graphsketch.Sharded. The public edge-level hash is a read-only
// function of the seed, so concurrent shards recompute the routing
// independently and consistently.
func (s *Sketch) UpdateBatchRange(batch []graph.WeightedEdge, lo, hi int) error {
	for _, we := range batch {
		top, err := s.EdgeLevel(we.E)
		if err != nil {
			return err
		}
		for i := 0; i <= top; i++ {
			if err := s.levels[i].UpdateEdgeRange(we.E, we.W, lo, hi); err != nil {
				return err
			}
		}
	}
	return nil
}

// NumVertices returns n, the vertex space the sketch shards over.
func (s *Sketch) NumVertices() int { return s.p.N }

// Merge adds another identically constructed sparsifier sketch — one with
// the same fingerprint (graphsketch.Mergeable).
func (s *Sketch) Merge(o graphsketch.Sketch) error {
	so, ok := o.(*Sketch)
	if !ok {
		return graphsketch.ErrMergeMismatch
	}
	// Wire identity, not raw Params: a sketch reopened from a frame holds
	// the resolved config its constructed twin may leave defaulted.
	if s.Fingerprint() != so.Fingerprint() {
		return sketch.ErrConfigMismatch
	}
	for i := range s.levels {
		if err := s.levels[i].AddScaled(so.levels[i], 1); err != nil {
			return err
		}
	}
	return nil
}

// ShareParts appends vertex v's parts (sketch.Sharer): its share of every
// level's skeleton, in level order.
func (s *Sketch) ShareParts(dst []sketch.SharePart, v int) []sketch.SharePart {
	for _, l := range s.levels {
		dst = l.ShareParts(dst, v)
	}
	return dst
}

var _ graphsketch.Sharded = (*Sketch)(nil)

// Params returns the (defaulted) parameters.
func (s *Sketch) Params() Params { return s.p }

// Words returns the memory footprint in 64-bit words.
func (s *Sketch) Words() int {
	w := 0
	for _, l := range s.levels {
		w += l.Words()
	}
	return w
}

// SharedWords returns the interned-randomness portion of Words across all
// levels; Words() == SharedWords() + Σ_v VertexWords(v).
func (s *Sketch) SharedWords() int {
	w := 0
	for _, l := range s.levels {
		w += l.SharedWords()
	}
	return w
}

// VertexWords returns vertex v's share across all levels.
func (s *Sketch) VertexWords(v int) int {
	w := 0
	for _, l := range s.levels {
		w += l.VertexWords(v)
	}
	return w
}

// CutOracle is a decoded sparsifier packaged for repeated approximate cut
// queries; obtain one with Sketch.Oracle. Queries cost O(|sparsifier|) and
// are (1±ε)-accurate for the ε implied by the sketch's K (Theorem 20).
type CutOracle struct {
	sp *graph.Hypergraph
}

// Oracle decodes the sparsifier once and returns a query object. The
// oracle snapshots the decode; updates applied to the sketch afterwards
// require a fresh Oracle call.
func (s *Sketch) Oracle() (*CutOracle, error) {
	sp, err := s.Decode(nil)
	if err != nil {
		return nil, err
	}
	return &CutOracle{sp: sp}, nil
}

// CutWeight returns the approximate weight of the cut (S, V\S).
func (o *CutOracle) CutWeight(inS func(v int) bool) int64 {
	return o.sp.CutWeight(inS)
}

// MinCut returns the approximate global minimum cut value and a witness
// side, computed on the sparsifier.
func (o *CutOracle) MinCut() (int64, []int, error) {
	return approximateMinCut(o.sp)
}

// Sparsifier returns the underlying weighted subgraph.
func (o *CutOracle) Sparsifier() *graph.Hypergraph { return o.sp }

func approximateMinCut(sp *graph.Hypergraph) (int64, []int, error) {
	verts := make([]int, sp.N())
	for i := range verts {
		verts[i] = i
	}
	return minCutOn(sp, verts)
}
