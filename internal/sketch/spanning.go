// Package sketch implements the paper's linear graph sketches: the
// AGM-style spanning-graph sketch, generalized to hypergraphs exactly as in
// Section 4.1 (Theorem 13), and the k-skeleton sketch built from k
// independent spanning sketches (Theorem 14).
//
// A sketch is vertex-based: every vertex v owns, for each Boruvka round, an
// L0 sampler of its incidence vector a_v, where for a hyperedge e
//
//	a_v[e] = |e|−1  if v = min(e),   −1  if v ∈ e \ {min(e)},   0 otherwise.
//
// The only subsets of {|e|−1, −1, …, −1} summing to zero are the empty set
// and the whole set, so for any vertex set S the vector Σ_{v∈S} a_v is
// supported exactly on δ(S) — summing the samplers of a supernode's members
// therefore yields an L0 sampler of the supernode's cut, which is what the
// Boruvka decoding exploits. For ordinary graphs (r = 2) the coefficients
// reduce to the familiar +1/−1 orientation of AGM.
package sketch

import (
	"cmp"
	"log/slog"
	"math/bits"
	"slices"

	"graphsketch"
	"graphsketch/internal/field"
	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/l0"
	"graphsketch/internal/obs"
)

// SpanningConfig controls a spanning-graph sketch.
type SpanningConfig struct {
	// Rounds is the number of independent sampler copies, one per Boruvka
	// round. Fresh randomness per round is what makes the adaptive
	// merging sound (Section 4.2 discusses exactly why reuse is not).
	// Default: ⌈log2 n⌉ + 2.
	Rounds int
	// Sampler configures the per-vertex L0 samplers.
	Sampler l0.Config
}

func (c SpanningConfig) withDefaults(n int) SpanningConfig {
	if c.Rounds <= 0 {
		c.Rounds = bits.Len(uint(n-1)) + 2
	}
	return c
}

// SpanningSketch is a linear, vertex-based sketch of a hypergraph from which
// a spanning graph (a maximal-connectivity certificate: one forest of
// hyperedges) can be decoded with high probability.
type SpanningSketch struct {
	dom  graph.Domain
	cfg  SpanningConfig
	seed uint64
	// samplers[t][v] is vertex v's sampler for round t, stored by value in
	// one row per round. All samplers in a round share one seed (the same
	// linear projection applied to every incidence vector) and one interned
	// copy of its randomness; rounds are independent. A sampler stays
	// absent — no levels, no heap object of its own — until an update or
	// merge reaches it, so a vertex no edge touches costs one row slot.
	samplers [][]l0.Sampler
}

// SpanningParams configures a spanning-graph sketch, following the
// repository-wide Params-struct constructor convention.
type SpanningParams struct {
	// N is the vertex count; R the maximum hyperedge cardinality (2 for
	// ordinary graphs; defaults to 2).
	N, R int
	// Rounds and Sampler configure the sketch as in SpanningConfig.
	Rounds  int
	Sampler l0.Config
	// Seed derives all randomness.
	Seed uint64
}

func (p SpanningParams) withDefaults() SpanningParams {
	if p.R < 2 {
		p.R = 2
	}
	return p
}

// NewSpanningSketch returns an empty spanning-graph sketch for hypergraphs
// on p.N vertices with cardinality at most p.R. Sketches with equal Params
// are compatible for Merge and AddScaled.
func NewSpanningSketch(p SpanningParams) (*SpanningSketch, error) {
	p = p.withDefaults()
	dom, err := graph.NewDomain(p.N, p.R)
	if err != nil {
		return nil, err
	}
	return NewSpanning(p.Seed, dom, SpanningConfig{Rounds: p.Rounds, Sampler: p.Sampler}), nil
}

// NewSpanning returns an empty spanning-graph sketch for hypergraphs over
// the given domain. Sketches with equal seeds, domains and configs are
// compatible for AddScaled.
//
// Deprecated: prefer NewSpanningSketch with SpanningParams; this positional
// variant is kept for callers that already hold a validated Domain.
func NewSpanning(seed uint64, dom graph.Domain, cfg SpanningConfig) *SpanningSketch {
	cfg = cfg.withDefaults(dom.N())
	ss := hashutil.NewSeedStream(seed)
	s := &SpanningSketch{dom: dom, cfg: cfg, seed: seed}
	s.samplers = make([][]l0.Sampler, cfg.Rounds)
	for t := range s.samplers {
		s.samplers[t] = l0.NewRow(ss.At(uint64(t)), dom.Size(), cfg.Sampler, dom.N())
	}
	// The sampler shape resolved against the domain: sketches that behave
	// identically hold equal configs, however their constructors spelled
	// the optional fields.
	s.cfg.Sampler = s.samplers[0][0].Config()
	return s
}

// Update applies the insertion (delta = +1) or deletion (delta = −1) of
// hyperedge e, or a weighted variant. The update touches only the samplers
// of e's endpoints — the sketch is vertex-based.
func (s *SpanningSketch) Update(e graph.Hyperedge, delta int64) error {
	return s.UpdateEdgeRange(e, delta, 0, s.dom.N())
}

// UpdateEdgeRange applies the update restricted to endpoints v with
// lo ≤ v < hi; endpoints outside the range are untouched. Applying the same
// update over a partition of [0, n) yields exactly the state of a full
// Update — this per-vertex decomposability is what lets the parallel engine
// shard updates across lock-free workers.
//
// The edge key is encoded once, and within each round the subsampling level
// and fingerprint power are hashed once and fanned out to every in-range
// endpoint (all samplers in a round share a seed), so the batched path also
// amortizes hashing relative to per-endpoint Update calls.
func (s *SpanningSketch) UpdateEdgeRange(e graph.Hyperedge, delta int64, lo, hi int) error {
	if !s.owns(e, lo, hi) {
		return nil
	}
	key, err := s.dom.Encode(e)
	if err != nil {
		return err
	}
	head := int64(len(e) - 1)
	for t := range s.samplers {
		row := s.samplers[t]
		hashed := false
		var top int
		var zPow field.Elem
		for i, v := range e {
			if v < lo || v >= hi {
				continue
			}
			coeff := int64(-1)
			if i == 0 { // e is canonical: e[0] = min(e)
				coeff = head
			}
			if !hashed {
				top, zPow = row[v].Hash(key)
				hashed = true
			}
			row[v].UpdateHashed(key, delta*coeff, top, zPow)
		}
	}
	return nil
}

// owns reports whether the range [lo, hi) has work for e: an endpoint in
// it. An edge naming no vertex, or a vertex outside [0, n), counts too —
// every range of a partition would skip it, so each must let Encode reject
// it. A well-formed edge some other range owns costs no hashing here.
func (s *SpanningSketch) owns(e graph.Hyperedge, lo, hi int) bool {
	for _, v := range e {
		if (lo <= v && v < hi) || v < 0 || v >= s.dom.N() {
			return true
		}
	}
	return len(e) == 0
}

// UpdateBatch applies a slice of weighted updates in order; equivalent to
// calling Update per element but with hashing amortized per edge.
func (s *SpanningSketch) UpdateBatch(batch []graph.WeightedEdge) error {
	return s.UpdateBatchRange(batch, 0, s.dom.N())
}

// UpdateBatchRange applies the batch restricted to endpoints in [lo, hi);
// see UpdateEdgeRange for the sharding contract.
func (s *SpanningSketch) UpdateBatchRange(batch []graph.WeightedEdge, lo, hi int) error {
	for _, we := range batch {
		if err := s.UpdateEdgeRange(we.E, we.W, lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// UpdateGraph applies every weighted edge of h, scaled by scale. With
// scale = −1 this is the linear subtraction the skeleton peeling uses.
func (s *SpanningSketch) UpdateGraph(h *graph.Hypergraph, scale int64) error {
	for _, we := range h.WeightedEdges() {
		if err := s.Update(we.E, we.W*scale); err != nil {
			return err
		}
	}
	return nil
}

// AddScaled adds scale copies of o into s (same seed/domain/config).
func (s *SpanningSketch) AddScaled(o *SpanningSketch, scale int64) error {
	switch {
	case s.seed != o.seed:
		return ErrSeedMismatch
	case s.dom != o.dom:
		return ErrDomainMismatch
	case s.cfg != o.cfg:
		return ErrConfigMismatch
	}
	for t := range s.samplers {
		for v := range s.samplers[t] {
			if err := s.samplers[t][v].AddScaled(&o.samplers[t][v], scale); err != nil {
				return err
			}
		}
	}
	return nil
}

// Clone returns a deep copy.
func (s *SpanningSketch) Clone() *SpanningSketch {
	cp := &SpanningSketch{dom: s.dom, cfg: s.cfg, seed: s.seed}
	cp.samplers = make([][]l0.Sampler, len(s.samplers))
	for t := range s.samplers {
		cp.samplers[t] = l0.CloneRow(s.samplers[t])
	}
	return cp
}

// Decode decodes a spanning graph of the sketched hypergraph, with the
// decode span hung under parent (nil starts a fresh trace): a subgraph
// with the same connected components, at most n−1 hyperedges. The
// decoding is the Boruvka process of Ahn et al.: in each round, every
// current component samples one hyperedge leaving it (by summing its
// members' samplers for that round) and components merge along the
// sampled edges.
//
// It returns ErrDecodeFailed if the rounds are exhausted while some
// component both fails to produce a sample and cannot be certified as
// fully merged; every returned edge is fingerprint-certified real.
//
// The rounds run over the vertices whose round-0 sampler is allocated. A
// vertex no update or merge has reached is absent in every round: its cut
// is zero, so it stays a singleton and the forest is the one an all-vertex
// decode returns. A vertex-subsampled subgraph's sketch (vertexconn)
// therefore decodes over its members alone.
func (s *SpanningSketch) Decode(parent *obs.Span) (*graph.Hypergraph, error) {
	sp := parent.Child(spanningSpan)
	defer sp.End()
	verts := make([]int, 0, s.dom.N())
	for v := range s.samplers[0] {
		if s.samplers[0][v].StateWords() > 0 {
			verts = append(verts, v)
		}
	}
	forest := graph.MustHypergraph(s.dom.N(), s.dom.R())
	if _, err := s.Boruvka(sp, graphalg.NewDSU(s.dom.N()), forest, verts, nil); err != nil {
		return nil, err
	}
	return forest, nil
}

// SpanningGraphTraced is Decode.
//
// Deprecated: gsbench/ calls this; ROADMAP item 1 deletes it.
func (s *SpanningSketch) SpanningGraphTraced(parent *obs.Span) (*graph.Hypergraph, error) {
	return s.Decode(parent)
}

// CutTerm is one exactly known coordinate of a vertex's incidence vector:
// Boruvka adds Delta at Key to every cut sampler the vertex is summed into.
type CutTerm struct {
	Key   uint64
	Delta int64
}

// Boruvka completes forest by the Boruvka process over the components of d
// that contain a vertex of verts (ascending), merging d as it goes. In each
// round every such component sums its members' round-t samplers, plus
// terms[i] for each member verts[i] when terms is non-nil, and merges along
// the sampled edge; a component whose summed sampler is zero is certified
// done. The caller guarantees every other component's cut is exactly empty
// and that the summed samplers plus terms sketch each component's cut
// vector, which holds for the pure sketch with verts = all vertices and no
// terms.
//
// The call allocates its working memory once, sized by len(verts): every
// component's cut is summed into one reused scratch sampler, and a
// singleton component without terms is sampled in place.
//
// It returns the number of component cuts drawn, and ErrDecodeFailed if the
// rounds run out while some component is uncertified. Every added edge is
// fingerprint-certified real.
func (s *SpanningSketch) Boruvka(sp *obs.Span, d *graphalg.DSU, forest *graph.Hypergraph, verts []int, terms [][]CutTerm) (draws int, err error) {
	b := newBoruvkaScratch(len(verts))
	for t := 0; t < s.cfg.Rounds; t++ {
		groups := b.activeGroups(d, verts)
		if len(groups) <= 1 {
			skm.peelRounds.Observe(float64(t))
			sp.SetAttrs(slog.Int("n", s.dom.N()), slog.Int("rounds", t))
			return draws, nil
		}
		draws += s.peelRound(sp, t, d, forest, verts, terms, groups, b)
	}

	// Rounds exhausted. If every remaining component is certified done,
	// the forest is complete; otherwise we may have missed connectivity.
	for _, g := range b.activeGroups(d, verts) {
		if !s.cutSampler(s.cfg.Rounds-1, verts, terms, g, &b.sum).IsZero() {
			skm.failures.Inc()
			obs.RecordEvent("sketch.decode_failure",
				slog.String("structure", "spanning"), slog.Int("n", s.dom.N()),
				slog.Int("rounds", s.cfg.Rounds), slog.Int("verts", len(verts)))
			return draws, ErrDecodeFailed
		}
	}
	skm.peelRounds.Observe(float64(s.cfg.Rounds))
	sp.SetAttrs(slog.Int("n", s.dom.N()), slog.Int("rounds", s.cfg.Rounds))
	return draws, nil
}

// boruvkaScratch is one Boruvka call's working memory, indexed by position
// in verts.
type boruvkaScratch struct {
	sum    l0.Sampler // the component cut being drawn
	done   []bool     // done[i]: verts[i]'s component's cut is certified empty
	roots  []int      // roots[i]: verts[i]'s component root this round
	order  []int      // live positions, grouped by component
	groups [][]int    // this round's groups, subslices of order
	keys   []uint64   // this round's sampled edge keys
	edge   graph.Hyperedge
}

func newBoruvkaScratch(m int) *boruvkaScratch {
	return &boruvkaScratch{
		done:   make([]bool, m),
		roots:  make([]int, m),
		order:  make([]int, 0, m),
		groups: make([][]int, 0, m),
		keys:   make([]uint64, 0, m),
	}
}

// activeGroups groups the positions of verts by component, skipping
// certified-done components, in order of each component's first member,
// each group ascending.
func (b *boruvkaScratch) activeGroups(d *graphalg.DSU, verts []int) [][]int {
	order := b.order[:0]
	for i, v := range verts {
		if !b.done[i] {
			b.roots[i] = d.Find(v)
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(x, y int) int {
		return cmp.Or(cmp.Compare(b.roots[x], b.roots[y]), cmp.Compare(x, y))
	})
	groups := b.groups[:0]
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && b.roots[order[hi]] == b.roots[order[lo]] {
			hi++
		}
		groups = append(groups, order[lo:hi:hi])
		lo = hi
	}
	slices.SortFunc(groups, func(x, y []int) int { return cmp.Compare(x[0], y[0]) })
	return groups
}

// peelRound runs one Boruvka round: every live component samples a
// hyperedge leaving it and components merge along the sampled edges.
// Certified-empty cuts are marked done. The round gets its own child span
// carrying the samplers-drawn / edges-recovered attributes. It
// returns the number of draws.
func (s *SpanningSketch) peelRound(parent *obs.Span, t int, d *graphalg.DSU, forest *graph.Hypergraph, verts []int, terms [][]CutTerm, groups [][]int, b *boruvkaScratch) int {
	rsp := parent.Child(peelRoundSpan)
	defer rsp.End()
	// Sampled keys are collected first and merged after every group has
	// drawn, so a merge cannot change the cut another group samples.
	keys := b.keys[:0]
	for _, g := range groups {
		sum := s.cutSampler(t, verts, terms, g, &b.sum)
		key, _, ok := sum.Sample()
		if !ok {
			if sum.IsZero() {
				// Certified: nothing leaves this component.
				for _, i := range g {
					b.done[i] = true
				}
			}
			continue
		}
		keys = append(keys, key)
	}
	recovered := 0
	for _, key := range keys {
		e, err := s.dom.AppendDecode(b.edge[:0], key)
		if err != nil {
			// A fingerprint false positive (~2^-40); treat as a
			// failed sample for this round.
			continue
		}
		b.edge = e
		merged := false
		for i := 1; i < len(e); i++ {
			if d.Union(e[0], e[i]) {
				merged = true
			}
		}
		if merged {
			// AddEdge clones e, so the scratch edge stays ours.
			forest.MustAddEdge(e, 1)
			recovered++
		}
	}
	rsp.SetAttrs(slog.Int("round", t), slog.Int("draws", len(groups)), slog.Int("edges", recovered))
	return len(groups)
}

// cutSampler returns the round-t sampler of a component's cut vector: the
// sum of the samplers of the members verts[i], i ∈ g, plus their terms. A
// single member without terms is its own cut sampler, returned in place;
// otherwise the sum is built in scratch, starting from a copy of the member
// with the most allocated cells so adding the others never regrows its
// arena. Field addition commutes, so the order does not change the sum. The
// result is only read, and is valid until the next call with this scratch.
func (s *SpanningSketch) cutSampler(t int, verts []int, terms [][]CutTerm, g []int, scratch *l0.Sampler) *l0.Sampler {
	row := s.samplers[t]
	if len(g) == 1 && (terms == nil || len(terms[g[0]]) == 0) {
		return &row[verts[g[0]]]
	}
	first := g[0]
	for _, i := range g[1:] {
		if row[verts[i]].StateWords() > row[verts[first]].StateWords() {
			first = i
		}
	}
	scratch.CopyFrom(&row[verts[first]])
	for _, i := range g {
		if i == first {
			continue
		}
		// Same round => same seed: AddScaled cannot fail.
		if err := scratch.AddScaled(&row[verts[i]], 1); err != nil {
			panic(err)
		}
	}
	if terms != nil {
		for _, i := range g {
			for _, c := range terms[i] {
				scratch.Update(c.Key, c.Delta)
			}
		}
	}
	return scratch
}

// Connected decodes the sketch and reports whether the hypergraph is
// connected over all n vertices. This is the paper's "first dynamic graph
// algorithm for hypergraph connectivity" (Section 4.1).
func (s *SpanningSketch) Connected() (bool, error) {
	f, err := s.Decode(nil)
	if err != nil {
		return false, err
	}
	return graphalg.Connected(f), nil
}

// Components decodes the sketch and returns the connected components.
func (s *SpanningSketch) Components() (*graphalg.DSU, error) {
	f, err := s.Decode(nil)
	if err != nil {
		return nil, err
	}
	return graphalg.ComponentsOf(f), nil
}

// Domain returns the sketch's hyperedge key domain.
func (s *SpanningSketch) Domain() graph.Domain { return s.dom }

// Rounds returns the number of Boruvka rounds (independent sampler copies).
func (s *SpanningSketch) Rounds() int { return s.cfg.Rounds }

// Seed returns the master seed.
func (s *SpanningSketch) Seed() uint64 { return s.seed }

// Words returns the total memory footprint in 64-bit words: every vertex's
// cells plus, once per round, the interned seed-derived randomness the
// round's n samplers share. Before interning each sampler stored that
// randomness privately; counting it once keeps the space tables aligned
// with what the process actually holds.
func (s *SpanningSketch) Words() int {
	w := s.SharedWords()
	for t := range s.samplers {
		for v := range s.samplers[t] {
			w += s.samplers[t][v].StateWords()
		}
	}
	return w
}

// SharedWords returns the size in 64-bit words of the interned seed-derived
// randomness the sketch references: one copy per round, shared by the
// round's n samplers. Words() == SharedWords() + Σ_v VertexWords(v).
func (s *SpanningSketch) SharedWords() int {
	w := 0
	for t := range s.samplers {
		w += s.samplers[t][0].SharedWords()
	}
	return w
}

// VertexWords returns the size of a single vertex's share of the sketch —
// the message size in the simultaneous communication model. Messages carry
// only cell state; the shared randomness is the model's public coin and is
// never transmitted.
func (s *SpanningSketch) VertexWords(v int) int {
	w := 0
	for t := range s.samplers {
		w += s.samplers[t][v].StateWords()
	}
	return w
}

// NumVertices returns n, the vertex space the sketch shards over.
func (s *SpanningSketch) NumVertices() int { return s.dom.N() }

// Merge adds another spanning sketch with identical seed, domain, and
// config (graphsketch.Mergeable).
func (s *SpanningSketch) Merge(o graphsketch.Sketch) error {
	so, ok := o.(*SpanningSketch)
	if !ok {
		return graphsketch.ErrMergeMismatch
	}
	return s.AddScaled(so, 1)
}

var _ graphsketch.Sharded = (*SpanningSketch)(nil)
