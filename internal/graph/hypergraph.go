package graph

import (
	"fmt"
	"sort"
)

// Hypergraph is a weighted hypergraph on the fixed vertex set {0, …, n−1}
// with hyperedge cardinality at most r. Weights are positive integers
// (multiplicities); the sparsifier produces weights that are powers of two.
// The zero value is not usable; construct with NewHypergraph.
type Hypergraph struct {
	dom   Domain
	edges map[uint64]entry
}

type entry struct {
	e Hyperedge
	w int64
}

// NewHypergraph returns an empty hypergraph on n vertices with hyperedge
// cardinality at most r.
func NewHypergraph(n, r int) (*Hypergraph, error) {
	dom, err := NewDomain(n, r)
	if err != nil {
		return nil, err
	}
	return &Hypergraph{dom: dom, edges: make(map[uint64]entry)}, nil
}

// MustHypergraph is NewHypergraph that panics on error.
func MustHypergraph(n, r int) *Hypergraph {
	h, err := NewHypergraph(n, r)
	if err != nil {
		panic(err)
	}
	return h
}

// NewGraph returns an empty ordinary graph (r = 2) on n vertices.
func NewGraph(n int) *Hypergraph { return MustHypergraph(n, 2) }

// N returns the number of vertices.
func (h *Hypergraph) N() int { return h.dom.n }

// R returns the maximum hyperedge cardinality.
func (h *Hypergraph) R() int { return h.dom.r }

// Domain returns the key domain for this hypergraph's shape.
func (h *Hypergraph) Domain() Domain { return h.dom }

// EdgeCount returns the number of distinct hyperedges.
func (h *Hypergraph) EdgeCount() int { return len(h.edges) }

// TotalWeight returns the sum of edge weights.
func (h *Hypergraph) TotalWeight() int64 {
	var t int64
	for _, en := range h.edges {
		t += en.w
	}
	return t
}

// AddEdge adds w to the weight of hyperedge e (inserting it if absent).
// Negative w performs deletion; a weight reaching zero removes the edge, and
// a weight going negative is an error (the caller deleted an absent edge).
func (h *Hypergraph) AddEdge(e Hyperedge, w int64) error {
	key, err := h.dom.Encode(e)
	if err != nil {
		return err
	}
	en := h.edges[key]
	nw := en.w + w
	switch {
	case nw < 0:
		return fmt.Errorf("graph: weight of %v would become negative (%d)", e, nw)
	case nw == 0:
		delete(h.edges, key)
	default:
		h.edges[key] = entry{e: e.Clone(), w: nw}
	}
	return nil
}

// MustAddEdge is AddEdge that panics on error.
func (h *Hypergraph) MustAddEdge(e Hyperedge, w int64) {
	if err := h.AddEdge(e, w); err != nil {
		panic(err)
	}
}

// AddSimple inserts an unweighted edge built from the given vertices,
// panicking on invalid input. For tests and generators.
func (h *Hypergraph) AddSimple(vs ...int) {
	h.MustAddEdge(MustEdge(vs...), 1)
}

// Has reports whether hyperedge e is present (with positive weight).
func (h *Hypergraph) Has(e Hyperedge) bool {
	key, err := h.dom.Encode(e)
	if err != nil {
		return false
	}
	_, ok := h.edges[key]
	return ok
}

// Weight returns the weight of hyperedge e (0 if absent).
func (h *Hypergraph) Weight(e Hyperedge) int64 {
	key, err := h.dom.Encode(e)
	if err != nil {
		return 0
	}
	return h.edges[key].w
}

// Edges returns the hyperedges in deterministic (key-sorted) order. The
// returned slices alias internal storage; callers must not mutate them.
func (h *Hypergraph) Edges() []Hyperedge {
	keys := h.sortedKeys()
	out := make([]Hyperedge, len(keys))
	for i, k := range keys {
		out[i] = h.edges[k].e
	}
	return out
}

// EachEdge calls fn on every hyperedge in unspecified order — cheaper than
// Edges when the caller's result does not depend on order. The hyperedges
// alias internal storage; fn must not mutate them or h.
func (h *Hypergraph) EachEdge(fn func(Hyperedge)) {
	for _, en := range h.edges {
		fn(en.e)
	}
}

// WeightedEdge pairs a hyperedge with its weight.
type WeightedEdge struct {
	E Hyperedge
	W int64
}

// WeightedEdges returns edges with weights in deterministic order.
func (h *Hypergraph) WeightedEdges() []WeightedEdge {
	keys := h.sortedKeys()
	out := make([]WeightedEdge, len(keys))
	for i, k := range keys {
		out[i] = WeightedEdge{E: h.edges[k].e, W: h.edges[k].w}
	}
	return out
}

func (h *Hypergraph) sortedKeys() []uint64 {
	keys := make([]uint64, 0, len(h.edges))
	for k := range h.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Clone returns a deep copy.
func (h *Hypergraph) Clone() *Hypergraph {
	cp := &Hypergraph{dom: h.dom, edges: make(map[uint64]entry, len(h.edges))}
	for k, en := range h.edges {
		cp.edges[k] = entry{e: en.e.Clone(), w: en.w}
	}
	return cp
}

// Equal reports whether two hypergraphs have identical shape, edges and
// weights.
func (h *Hypergraph) Equal(o *Hypergraph) bool {
	if h.dom != o.dom || len(h.edges) != len(o.edges) {
		return false
	}
	for k, en := range h.edges {
		oe, ok := o.edges[k]
		if !ok || oe.w != en.w {
			return false
		}
	}
	return true
}

// CutWeight returns the total weight of hyperedges crossing (S, V\S), where
// S is given as a membership predicate over vertices.
func (h *Hypergraph) CutWeight(inS func(v int) bool) int64 {
	var t int64
	for _, en := range h.edges {
		if en.e.Crosses(inS) {
			t += en.w
		}
	}
	return t
}

// CutWeightSet is CutWeight with S given as a vertex set.
func (h *Hypergraph) CutWeightSet(s map[int]bool) int64 {
	return h.CutWeight(func(v int) bool { return s[v] })
}

// Crossing returns the hyperedges crossing (S, V\S) in deterministic order.
func (h *Hypergraph) Crossing(inS func(v int) bool) []Hyperedge {
	var out []Hyperedge
	for _, k := range h.sortedKeys() {
		if h.edges[k].e.Crosses(inS) {
			out = append(out, h.edges[k].e)
		}
	}
	return out
}

// Degree returns the total weight of hyperedges incident to v.
func (h *Hypergraph) Degree(v int) int64 {
	var t int64
	for _, en := range h.edges {
		if en.e.Contains(v) {
			t += en.w
		}
	}
	return t
}

// VertexDeletionMode selects the semantics of deleting a vertex set from a
// hypergraph. For ordinary graphs the two modes coincide.
type VertexDeletionMode int

const (
	// RestrictEdges keeps each hyperedge's surviving endpoints: e becomes
	// e\S and is kept while it still has at least two endpoints. This is
	// the semantics under which a hyperedge keeps connecting its surviving
	// members, matching the flow model used for hypergraph vertex
	// connectivity.
	RestrictEdges VertexDeletionMode = iota
	// DropIncident removes every hyperedge that touches a deleted vertex.
	DropIncident
)

// RemoveVertices returns the hypergraph after deleting the vertices for
// which del returns true, under the given semantics. Vertex IDs are
// preserved (deleted vertices simply become isolated).
func (h *Hypergraph) RemoveVertices(del func(v int) bool, mode VertexDeletionMode) *Hypergraph {
	out := MustHypergraph(h.dom.n, h.dom.r)
	for _, en := range h.edges {
		switch mode {
		case DropIncident:
			touched := false
			for _, v := range en.e {
				if del(v) {
					touched = true
					break
				}
			}
			if !touched {
				out.MustAddEdge(en.e, en.w)
			}
		case RestrictEdges:
			r := en.e.Restrict(del)
			if len(r) >= 2 {
				out.MustAddEdge(r, en.w)
			}
		default:
			panic("graph: unknown vertex deletion mode")
		}
	}
	return out
}

// InducedSubgraph returns the hypergraph containing exactly the hyperedges
// fully inside the vertex set keep (the Benczúr–Karger notion of induced
// subgraph used for edge strength).
func (h *Hypergraph) InducedSubgraph(keep func(v int) bool) *Hypergraph {
	out := MustHypergraph(h.dom.n, h.dom.r)
	for _, en := range h.edges {
		inside := true
		for _, v := range en.e {
			if !keep(v) {
				inside = false
				break
			}
		}
		if inside {
			out.MustAddEdge(en.e, en.w)
		}
	}
	return out
}

// Subtract removes every weighted edge of o from h. It is the offline
// counterpart of the sketches' linear subtraction.
func (h *Hypergraph) Subtract(o *Hypergraph) error {
	for _, we := range o.WeightedEdges() {
		if err := h.AddEdge(we.E, -we.W); err != nil {
			return err
		}
	}
	return nil
}

// Union adds every weighted edge of o into h, scaling weights by scale.
func (h *Hypergraph) Union(o *Hypergraph, scale int64) error {
	for _, we := range o.WeightedEdges() {
		if err := h.AddEdge(we.E, we.W*scale); err != nil {
			return err
		}
	}
	return nil
}

// String summarizes the hypergraph.
func (h *Hypergraph) String() string {
	return fmt.Sprintf("Hypergraph(n=%d, r=%d, m=%d, weight=%d)", h.dom.n, h.dom.r, len(h.edges), h.TotalWeight())
}
