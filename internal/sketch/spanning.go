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
	"math/bits"

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
	// samplers[t][v] is vertex v's sampler for round t. All samplers in a
	// round share one seed (the same linear projection applied to every
	// incidence vector); rounds are independent.
	samplers [][]*l0.Sampler
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
	s.samplers = make([][]*l0.Sampler, cfg.Rounds)
	for t := 0; t < cfg.Rounds; t++ {
		roundSeed := ss.At(uint64(t))
		row := make([]*l0.Sampler, dom.N())
		for v := range row {
			row[v] = l0.New(roundSeed, dom.Size(), cfg.Sampler)
		}
		s.samplers[t] = row
	}
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
			if err := s.samplers[t][v].AddScaled(o.samplers[t][v], scale); err != nil {
				return err
			}
		}
	}
	return nil
}

// Clone returns a deep copy.
func (s *SpanningSketch) Clone() *SpanningSketch {
	cp := &SpanningSketch{dom: s.dom, cfg: s.cfg, seed: s.seed}
	cp.samplers = make([][]*l0.Sampler, len(s.samplers))
	for t := range s.samplers {
		row := make([]*l0.Sampler, len(s.samplers[t]))
		for v := range row {
			row[v] = s.samplers[t][v].Clone()
		}
		cp.samplers[t] = row
	}
	return cp
}

// SpanningGraph decodes a spanning graph of the sketched hypergraph: a
// subgraph with the same connected components, at most n−1 hyperedges. The
// decoding is the Boruvka process of Ahn et al.: in each round, every
// current component samples one hyperedge leaving it (by summing its
// members' samplers for that round) and components merge along the sampled
// edges.
//
// It returns ErrDecodeFailed if the rounds are exhausted while some
// component both fails to produce a sample and cannot be certified as
// fully merged; every returned edge is fingerprint-certified real.
func (s *SpanningSketch) SpanningGraph() (*graph.Hypergraph, error) {
	return s.SpanningGraphTraced(nil)
}

// SpanningGraphTraced is SpanningGraph with the decode span hung under
// parent, so callers that fan decodes out (skeleton layers, engine
// workers) produce one causal trace tree. A nil parent starts a fresh
// trace (exactly SpanningGraph).
func (s *SpanningSketch) SpanningGraphTraced(parent *obs.Span) (*graph.Hypergraph, error) {
	sp := parent.Child("sketch.spanning_graph", skm.spanSpan)
	defer sp.End()
	n := s.dom.N()
	forest := graph.MustHypergraph(n, s.dom.R())
	all := make([]int, n)
	for v := range all {
		all[v] = v
	}
	if _, err := s.Boruvka(sp, graphalg.NewDSU(n), forest, all, nil); err != nil {
		return nil, err
	}
	return forest, nil
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
// It returns the number of component cuts drawn, and ErrDecodeFailed if the
// rounds run out while some component is uncertified. Every added edge is
// fingerprint-certified real.
func (s *SpanningSketch) Boruvka(sp *obs.Span, d *graphalg.DSU, forest *graph.Hypergraph, verts []int, terms [][]CutTerm) (draws int, err error) {
	// done[root] marks components whose cut was certified empty (no edges
	// leave them): they can be skipped in later rounds.
	done := make(map[int]bool)
	for t := 0; t < s.cfg.Rounds; t++ {
		groups := activeGroups(d, verts, done)
		if len(groups) <= 1 {
			skm.peelRounds.Observe(float64(t))
			sp.SetAttrs("n", s.dom.N(), "rounds", t)
			return draws, nil
		}
		draws += s.peelRound(sp, t, d, forest, verts, terms, groups, done)
	}

	// Rounds exhausted. If every remaining component is certified done,
	// the forest is complete; otherwise we may have missed connectivity.
	for _, g := range activeGroups(d, verts, done) {
		if !s.cutSampler(s.cfg.Rounds-1, verts, terms, g).IsZero() {
			skm.failures.Inc()
			obs.RecordEvent("sketch.decode_failure",
				"structure", "spanning", "n", s.dom.N(), "rounds", s.cfg.Rounds,
				"verts", len(verts))
			return draws, ErrDecodeFailed
		}
	}
	skm.peelRounds.Observe(float64(s.cfg.Rounds))
	sp.SetAttrs("n", s.dom.N(), "rounds", s.cfg.Rounds)
	return draws, nil
}

// activeGroups groups the positions of verts by component, skipping
// certified-done components, in order of each component's first member.
func activeGroups(d *graphalg.DSU, verts []int, done map[int]bool) [][]int {
	at := make(map[int]int)
	var groups [][]int
	for i, v := range verts {
		root := d.Find(v)
		if done[root] {
			continue
		}
		g, ok := at[root]
		if !ok {
			g = len(groups)
			at[root] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// peelRound runs one Boruvka round: every live component samples a
// hyperedge leaving it and components merge along the sampled edges.
// Certified-empty cuts are marked in done. The round gets its own
// trace-only child span carrying the samplers-drawn / edges-recovered
// attributes. It returns the number of draws.
func (s *SpanningSketch) peelRound(parent *obs.Span, t int, d *graphalg.DSU, forest *graph.Hypergraph, verts []int, terms [][]CutTerm, groups [][]int, done map[int]bool) int {
	rsp := parent.Child("sketch.peel_round", nil)
	defer rsp.End()
	recovered := 0
	var merges []graph.Hyperedge
	for _, g := range groups {
		sum := s.cutSampler(t, verts, terms, g)
		key, _, ok := sum.Sample()
		if !ok {
			if sum.IsZero() {
				// Certified: nothing leaves this component.
				done[d.Find(verts[g[0]])] = true
			}
			continue
		}
		e, err := s.dom.Decode(key)
		if err != nil {
			// A fingerprint false positive (~2^-40); treat as a
			// failed sample for this round.
			continue
		}
		merges = append(merges, e)
	}
	for _, e := range merges {
		merged := false
		for i := 1; i < len(e); i++ {
			if d.Union(e[0], e[i]) {
				merged = true
			}
		}
		if merged {
			forest.MustAddEdge(e, 1)
			recovered++
		}
	}
	rsp.SetAttrs("round", t, "draws", len(groups), "edges", recovered)
	return len(groups)
}

// cutSampler returns the round-t sampler of a component's cut vector: the
// sum of the samplers of the members verts[i], i ∈ g, plus their terms.
func (s *SpanningSketch) cutSampler(t int, verts []int, terms [][]CutTerm, g []int) *l0.Sampler {
	sum := s.samplers[t][verts[g[0]]].Clone()
	for _, i := range g[1:] {
		// Same round => same seed: AddScaled cannot fail.
		if err := sum.AddScaled(s.samplers[t][verts[i]], 1); err != nil {
			panic(err)
		}
	}
	if terms != nil {
		for _, i := range g {
			for _, c := range terms[i] {
				sum.Update(c.Key, c.Delta)
			}
		}
	}
	return sum
}

// Connected decodes the sketch and reports whether the hypergraph is
// connected over all n vertices. This is the paper's "first dynamic graph
// algorithm for hypergraph connectivity" (Section 4.1).
func (s *SpanningSketch) Connected() (bool, error) {
	f, err := s.SpanningGraph()
	if err != nil {
		return false, err
	}
	return graphalg.Connected(f), nil
}

// Components decodes the sketch and returns the connected components.
func (s *SpanningSketch) Components() (*graphalg.DSU, error) {
	f, err := s.SpanningGraph()
	if err != nil {
		return nil, err
	}
	return graphalg.ComponentsOf(f), nil
}

// Domain returns the sketch's hyperedge key domain.
func (s *SpanningSketch) Domain() graph.Domain { return s.dom }

// Rounds returns the number of Boruvka rounds (independent sampler copies).
func (s *SpanningSketch) Rounds() int { return s.cfg.Rounds }

// Config returns the (defaulted) configuration.
func (s *SpanningSketch) Config() SpanningConfig { return s.cfg }

// Seed returns the master seed.
func (s *SpanningSketch) Seed() uint64 { return s.seed }

// Words returns the total memory footprint in 64-bit words: every vertex's
// cells plus, once per round, the interned seed-derived randomness the
// round's n samplers share. Before interning each sampler stored that
// randomness privately; counting it once keeps the space tables aligned
// with what the process actually holds.
func (s *SpanningSketch) Words() int {
	w := 0
	for t := range s.samplers {
		row := s.samplers[t]
		w += row[0].SharedWords()
		for v := range row {
			w += row[v].StateWords()
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

// Marshal serializes the sketch contents (graphsketch.Sketch); identical to
// State.
func (s *SpanningSketch) Marshal() []byte { return s.State() }

// Unmarshal merges serialized contents into the sketch; identical to
// AddState.
func (s *SpanningSketch) Unmarshal(data []byte) error { return s.AddState(data) }

var _ graphsketch.Sharded = (*SpanningSketch)(nil)
