// Package vertexconn implements the paper's Section 3: the first linear
// sketches for vertex connectivity in dynamic graph streams.
//
// Both structures share one idea: maintain spanning-forest sketches for
// R vertex-subsampled subgraphs G_1, …, G_R, where G_i keeps each vertex
// independently with probability 1/k (by public randomness, so the
// subsampling is consistent across insertions and deletions of the same
// edge). At query time, decode a forest T_i for each G_i and take
// H = T_1 ∪ … ∪ T_R:
//
//   - Query structure (Theorem 4): with R = 16·k²·ln n, for any vertex set
//     S with |S| ≤ k, H\S is connected iff G\S is connected w.h.p., so H
//     answers "does removing S disconnect the graph?" in O(kn·polylog n)
//     space — optimal by the Theorem 5 lower bound.
//   - Estimator (Theorem 8): with R = 160·k²·ε⁻¹·ln n, the vertex
//     connectivity of H distinguishes (1+ε)k-vertex-connected graphs from
//     at most k-vertex-connected ones, in O(kn·ε⁻¹·polylog n) space.
//
// The structures work for hypergraphs too (Theorem 13 substitutes the
// hypergraph spanning sketch): a hyperedge belongs to G_i iff all its
// endpoints were sampled, and vertex removal uses the same drop-incident
// semantics.
package vertexconn

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/bits"
	"sort"

	"graphsketch"
	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/obs"
	"graphsketch/internal/par"
	"graphsketch/internal/sketch"
)

// Params configures a vertex-connectivity sketch.
type Params struct {
	// N is the number of vertices; R the maximum hyperedge cardinality
	// (2 for ordinary graphs).
	N, R int
	// K is the connectivity parameter: the maximum query set size
	// (Theorem 4) or the connectivity scale being estimated (Theorem 8).
	K int
	// Subgraphs is the number R of vertex-subsampled subgraphs. Use
	// TheoryQueryParams / TheoryEstimateParams for the paper's constants,
	// or set a smaller value for the practical profile (the experiments
	// chart accuracy against this knob).
	Subgraphs int
	// Spanning configures the per-subgraph spanning sketches.
	Spanning sketch.SpanningConfig
	// Seed derives all randomness.
	Seed uint64
}

// TheoryQueryParams returns the paper's Theorem 4 parameters:
// R = ⌈16·k²·ln n⌉ subgraphs.
func TheoryQueryParams(n, r, k int, seed uint64) Params {
	R := int(math.Ceil(16 * float64(k) * float64(k) * math.Log(float64(n))))
	return Params{N: n, R: r, K: k, Subgraphs: R, Seed: seed}
}

// TheoryEstimateParams returns the paper's Theorem 8 parameters:
// R = ⌈160·k²·ε⁻¹·ln n⌉ subgraphs.
func TheoryEstimateParams(n, r, k int, eps float64, seed uint64) Params {
	R := int(math.Ceil(160 * float64(k) * float64(k) / eps * math.Log(float64(n))))
	return Params{N: n, R: r, K: k, Subgraphs: R, Seed: seed}
}

func (p Params) withDefaults() (Params, error) {
	if p.N < 2 {
		return p, fmt.Errorf("vertexconn: need N >= 2, got %d", p.N)
	}
	if p.R < 2 {
		p.R = 2
	}
	if p.K < 1 {
		return p, fmt.Errorf("vertexconn: need K >= 1, got %d", p.K)
	}
	if p.Subgraphs < 1 {
		return p, fmt.Errorf("vertexconn: need Subgraphs >= 1, got %d", p.Subgraphs)
	}
	return p, nil
}

// Sketch is the vertex-connectivity sketch. It is linear (edge deletions
// are negative insertions) and vertex-based: vertex v's share consists of
// its samplers in the subgraphs that sampled v.
type Sketch struct {
	p   Params
	dom graph.Domain
	// member[v] is a bitset over subgraph indices: bit i set iff v ∈ G_i.
	member   [][]uint64
	sketches []*sketch.SpanningSketch
}

// New returns an empty vertex-connectivity sketch.
func New(p Params) (*Sketch, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	dom, err := graph.NewDomain(p.N, p.R)
	if err != nil {
		return nil, err
	}
	words := (p.Subgraphs + 63) / 64
	member := make([][]uint64, p.N)
	for v := range member {
		member[v] = make([]uint64, words)
	}
	eachMember(p, func(i, v int) bool {
		member[v][i/64] |= 1 << uint(i%64)
		return true
	})
	sketchSeeds := hashutil.NewSeedStream(p.Seed).Sub(2)
	sketches := make([]*sketch.SpanningSketch, p.Subgraphs)
	for i := range sketches {
		sketches[i] = sketch.NewSpanning(sketchSeeds.At(uint64(i)), dom, p.Spanning)
	}
	return &Sketch{p: p, dom: dom, member: member, sketches: sketches}, nil
}

// eachMember calls f(i, v) for every vertex v sampled into G_i, subgraph
// by subgraph, until f returns false. G_i keeps each vertex with
// probability 1/k (deleting with probability 1 − 1/k, as in Section 3.1).
func eachMember(p Params, f func(i, v int) bool) {
	memberSeeds := hashutil.NewSeedStream(p.Seed).Sub(1)
	for i := 0; i < p.Subgraphs; i++ {
		seed := memberSeeds.At(uint64(i))
		for v := 0; v < p.N; v++ {
			if hashutil.Bernoulli(seed, uint64(v), 1, uint64(p.K)) && !f(i, v) {
				return
			}
		}
	}
}

// InSubgraph reports whether vertex v was sampled into G_i.
func (s *Sketch) InSubgraph(i, v int) bool {
	return s.member[v][i/64]&(1<<uint(i%64)) != 0
}

// Update applies a hyperedge insertion (delta = +1) or deletion (−1). The
// edge is routed to exactly the sketches of subgraphs containing all of its
// endpoints; the routing is deterministic, so a later deletion hits the
// same sketches as the insertion.
func (s *Sketch) Update(e graph.Hyperedge, delta int64) error {
	return s.UpdateEdgeRange(e, delta, 0, s.p.N)
}

// UpdateEdgeRange applies the update restricted to endpoints in [lo, hi).
// The membership routing is a read-only function of the public randomness,
// so concurrent shards recompute it independently.
func (s *Sketch) UpdateEdgeRange(e graph.Hyperedge, delta int64, lo, hi int) error {
	if _, err := s.dom.Encode(e); err != nil {
		return err
	}
	words := len(s.member[0])
	// Intersect the endpoint membership bitsets.
	var buf [64]uint64
	mask := buf[:0]
	for w := 0; w < words; w++ {
		m := s.member[e[0]][w]
		for _, v := range e[1:] {
			m &= s.member[v][w]
		}
		mask = append(mask, m)
	}
	for w, m := range mask {
		for m != 0 {
			i := w*64 + bits.TrailingZeros64(m)
			if err := s.sketches[i].UpdateEdgeRange(e, delta, lo, hi); err != nil {
				return err
			}
			m &= m - 1
		}
	}
	return nil
}

// UpdateBatch applies a slice of weighted updates in order.
func (s *Sketch) UpdateBatch(batch []graph.WeightedEdge) error {
	return s.UpdateBatchRange(batch, 0, s.p.N)
}

// UpdateBatchRange applies the batch restricted to endpoints in [lo, hi);
// see graphsketch.Sharded.
func (s *Sketch) UpdateBatchRange(batch []graph.WeightedEdge, lo, hi int) error {
	for _, we := range batch {
		if err := s.UpdateEdgeRange(we.E, we.W, lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// Decode builds H = T_1 ∪ … ∪ T_R, the union of every subgraph's decoded
// spanning forest, with the decode trace hung under parent (nil starts a
// fresh trace): each subgraph's spanning decode becomes a child subtree of
// the build_h span, so a slow H rebuild attributes down to the subsampled
// sketch (and peel round) that caused it. Decode only reads the sketch and
// caches nothing: every call decodes all R forests, so a caller asking
// repeated questions of one state serves them from oracle.For(s).
// Individual forest decode failures are tolerated up to a small fraction
// (each forest is one of R redundant witnesses) and counted in
// vertexconn_forest_failures_total.
//
// The R decodes are independent and run on all CPUs; the result is
// deterministic regardless of scheduling (each decode reads only its own
// sketch and the union is order-free).
func (s *Sketch) Decode(parent *obs.Span) (*graph.Hypergraph, error) {
	sp := parent.Child(buildHSpan)
	defer sp.End(slog.Int("subgraphs", len(s.sketches)))
	forests := make([]*graph.Hypergraph, len(s.sketches))
	errs := make([]error, len(s.sketches))
	// Each forest decode reads only its own sketch; fan out across CPUs
	// and record per-index results (failures are tolerated below, so fn
	// itself never errors). Child spans are created concurrently, which is
	// safe: each goroutine only reads the parent's immutable identity.
	_ = par.ForEach(0, len(s.sketches), func(i int) error {
		forests[i], errs[i] = s.sketches[i].Decode(sp)
		return nil
	})

	h := graph.MustHypergraph(s.p.N, s.p.R)
	failures := 0
	for i := range forests {
		if errs[i] != nil {
			failures++
			vm.failures.Inc()
			if failures > len(s.sketches)/10+1 {
				return nil, fmt.Errorf("vertexconn: %d/%d forest decodes failed (subgraph %d): %w",
					failures, len(s.sketches), i, errs[i])
			}
			continue
		}
		for _, e := range forests[i].Edges() {
			if !h.Has(e) {
				h.MustAddEdge(e, 1)
			}
		}
	}
	sp.SetAttrs(slog.Int("failures", failures))
	return h, nil
}

// BuildHTraced is Decode with a second result that is always 0.
//
// Deprecated: gsbench/ calls this; ROADMAP item 1 deletes it.
func (s *Sketch) BuildHTraced(parent *obs.Span) (*graph.Hypergraph, int, error) {
	h, err := s.Decode(parent)
	return h, 0, err
}

// MaxRemove is the largest removal set the Theorem 4 query answers: K.
func (s *Sketch) MaxRemove() int { return s.p.K }

// ErrQueryTooLarge is returned when a query set exceeds the sketch's K.
var ErrQueryTooLarge = errors.New("vertexconn: query set larger than sketch parameter K")

// Disconnects answers the Theorem 4 query: does removing the vertex set S
// (|S| ≤ K) disconnect the graph? Removal uses drop-incident semantics
// (every hyperedge touching S is removed), the induced-subgraph notion the
// subsampling is built on; for ordinary graphs this is the standard
// definition. Each call decodes H; oracle.For(s).DisconnectedBy answers
// repeated queries against one decode.
func (s *Sketch) Disconnects(set map[int]bool) (bool, error) {
	if len(set) > s.p.K {
		return false, ErrQueryTooLarge
	}
	h, err := s.Decode(nil)
	if err != nil {
		return false, err
	}
	return graphalg.DisconnectsQueryMode(h, set, graph.DropIncident), nil
}

// EstimateConnectivity post-processes H with the offline vertex-connectivity
// algorithm (Theorem 8's final step) and returns κ(H) capped at limit. By
// Corollary 7, if G is (1+ε)k-vertex-connected then κ(H) ≥ k w.h.p., and
// κ(H) ≤ κ(G) always (H ⊆ G), so the return value distinguishes the two
// cases. Defined for ordinary graphs (R = 2). Each call decodes H.
func (s *Sketch) EstimateConnectivity(limit int64) (int64, error) {
	if s.p.R != 2 {
		return 0, errors.New("vertexconn: connectivity estimation is defined for graphs (R = 2)")
	}
	h, err := s.Decode(nil)
	if err != nil {
		return 0, err
	}
	return graphalg.VertexConnectivity(h, limit), nil
}

// IsKConnected reports whether κ(H) ≥ k, the Theorem 8 decision.
func (s *Sketch) IsKConnected() (bool, error) {
	got, err := s.EstimateConnectivity(int64(s.p.K))
	if err != nil {
		return false, err
	}
	return got >= int64(s.p.K), nil
}

// Params returns the sketch parameters.
func (s *Sketch) Params() Params { return s.p }

// Subgraphs returns the number of vertex-subsampled subgraphs R.
func (s *Sketch) Subgraphs() int { return s.p.Subgraphs }

// Words returns the total memory footprint in 64-bit words, including the
// (implicit) membership bitsets.
func (s *Sketch) Words() int {
	w := 0
	for _, sk := range s.sketches {
		w += sk.Words()
	}
	return w
}

// SharedWords returns the interned-randomness portion of Words across all
// subgraph sketches; Words() == SharedWords() + Σ_v VertexWords(v).
func (s *Sketch) SharedWords() int {
	w := 0
	for _, sk := range s.sketches {
		w += sk.SharedWords()
	}
	return w
}

// VertexWords returns vertex v's share of the sketch: the message size in
// the simultaneous communication model (membership is public randomness and
// costs nothing).
func (s *Sketch) VertexWords(v int) int {
	w := 0
	for i, sk := range s.sketches {
		if s.InSubgraph(i, v) {
			w += sk.VertexWords(v)
		}
	}
	return w
}

// ShareParts appends vertex v's parts (sketch.Sharer): its samplers in
// every subgraph that sampled v — player P_v's message in the simultaneous
// communication model (subgraph membership is public randomness).
func (s *Sketch) ShareParts(dst []sketch.SharePart, v int) []sketch.SharePart {
	for i, sk := range s.sketches {
		if s.InSubgraph(i, v) {
			dst = sk.ShareParts(dst, v)
		}
	}
	return dst
}

// NumVertices returns n, the vertex space the sketch shards over.
func (s *Sketch) NumVertices() int { return s.p.N }

// Merge adds another identically constructed vertex-connectivity sketch —
// one with the same fingerprint (graphsketch.Mergeable).
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
	for i := range s.sketches {
		if err := s.sketches[i].AddScaled(so.sketches[i], 1); err != nil {
			return err
		}
	}
	return nil
}

var _ graphsketch.Sharded = (*Sketch)(nil)

// EstimateConnectivityDrop post-processes H with the exact drop-semantics
// vertex-connectivity oracle and returns κ_drop(H) capped at limit. Drop
// semantics (a removed vertex removes every incident hyperedge) is the
// notion this sketch's subsampling is built on, so this is the natural
// hypergraph estimator; the oracle is exponential in the removal-set size,
// so it is intended for small limit (the experiments use limit ≤ 4). As
// with the graph estimator, H ⊆ G means the value never exceeds κ_drop(G).
// Each call decodes H.
func (s *Sketch) EstimateConnectivityDrop(limit int64) (int64, error) {
	h, err := s.Decode(nil)
	if err != nil {
		return 0, err
	}
	return graphalg.VertexConnectivityDrop(h, limit), nil
}

// DisconnectsWitness answers the Theorem 4 query and, when the removal
// disconnects, also returns the partition of the surviving vertices into
// the components of H − S — the actionable half of the answer ("who gets
// cut off"). Since H preserves G's post-removal connectivity w.h.p.
// (Lemma 3), the witness partition is correct with the query's failure
// probability. Each call decodes H; see Disconnects.
func (s *Sketch) DisconnectsWitness(set map[int]bool) (bool, [][]int, error) {
	if len(set) > s.p.K {
		return false, nil, ErrQueryTooLarge
	}
	h, err := s.Decode(nil)
	if err != nil {
		return false, nil, err
	}
	reduced := h.RemoveVertices(func(v int) bool { return set[v] }, graph.DropIncident)
	d := graphalg.ComponentsOf(reduced)
	groups := map[int][]int{}
	for v := 0; v < s.p.N; v++ {
		if set[v] {
			continue
		}
		r := d.Find(v)
		groups[r] = append(groups[r], v)
	}
	var parts [][]int
	for _, g := range groups {
		parts = append(parts, g)
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i][0] < parts[j][0] })
	return len(parts) > 1, parts, nil
}
