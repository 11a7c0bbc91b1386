package hybrid

import (
	"fmt"
	"log/slog"
	"slices"

	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/obs"
	"graphsketch/internal/sketch"
)

// This file decodes a hybrid-wrapped spanning sketch by contracting first
// and sampling only what is unknown. An unspilled vertex's buffer holds
// every edge incident to it with the edge's net weight, so every edge with
// at least one unspilled endpoint is known exactly: one pass over the
// buffers unions each such edge in a DSU (adding it to the forest when it
// merges), handling it once, at its smallest unspilled endpoint. After
// that pass a component without a spilled vertex has an exactly empty cut,
// and the Boruvka rounds (sketch.SpanningSketch.Boruvka) run only over the
// components that hold one. Their cut vectors rest on the identity the
// pure sketch uses — for a vertex set S, Σ_{v∈S} a_v is supported exactly
// on δ(S) — with the unspilled members' part of the sum read from the
// buffers: a contracted edge with a spilled endpoint contributes, at its
// smallest spilled endpoint, a cancellation term of its unspilled
// endpoints' coefficients (|e|−1 at the min endpoint, −1 elsewhere) times
// its weight. Every endpoint of a contracted edge lies in one component,
// so adding the term to the component's summed samplers cancels the edge
// exactly, by linearity (Sampler.Update is the same linear map the stream
// applies). With no spilled vertex — or only one component holding any —
// the decode draws no sampler at all.

// Decode decodes whatever certificate the inner sketch type supports,
// with the decode spans hung under parent (nil starts a fresh trace).
//
// A spanning inner gets the contract-then-sample spanning decode: a
// subgraph with the same connected components, at most n−1 hyperedges. If
// at most one component holds a spilled vertex the decode is fully exact —
// deterministic, no sampler draws, and it cannot fail (with no spilled
// vertex at all the forest is the min-endpoint scan of the buffers).
// Otherwise it returns sketch.ErrDecodeFailed if the Boruvka rounds are
// exhausted before every spilled component is resolved or certified.
//
// A skeleton inner gets the unchanged Theorem 14 peel
// (sketch.SkeletonSketch.Decode), run on a clone with every buffer spilled
// first: the spill invariant makes the clone's inner byte-identical to a
// pure skeleton of the stream.
func (s *Sketch) Decode(parent *obs.Span) (*graph.Hypergraph, error) {
	switch in := s.inner.(type) {
	case *sketch.SpanningSketch:
		return s.spanningGraph(parent, in)
	case *sketch.SkeletonSketch:
		cp := s.Clone()
		if err := cp.SpillAll(); err != nil {
			return nil, err
		}
		return cp.inner.(*sketch.SkeletonSketch).Decode(parent)
	}
	return nil, fmt.Errorf("hybrid: no decoder for inner type %T", s.inner)
}

// spanningGraph is Decode over a spanning inner sp.
func (s *Sketch) spanningGraph(parent *obs.Span, sp *sketch.SpanningSketch) (*graph.Hypergraph, error) {
	s.observeOccupancy()
	span := parent.Child(spanningSpan)
	defer span.End()
	n := s.dom.N()
	forest := graph.MustHypergraph(n, s.dom.R())
	d := graphalg.NewDSU(n)
	var spilled []int
	for v := range s.spilled {
		if s.spilled[v] {
			spilled = append(spilled, v)
		}
	}
	terms, err := s.contract(d, forest, spilled)
	if err != nil {
		return nil, err
	}
	draws, err := sp.Boruvka(span, d, forest, spilled, terms)
	hm.mixedComponents.Add(int64(draws))
	if draws == 0 {
		hm.exactDecodes.Inc()
	} else {
		hm.mixedDecodes.Inc()
	}
	span.SetAttrs(slog.Int("spilled", len(spilled)), slog.Int("draws", draws))
	if err != nil {
		return nil, err
	}
	return forest, nil
}

// contract unions every edge with an unspilled endpoint into d, adding it
// to forest when it merges, and returns the cancellation terms of those
// that also have a spilled endpoint, indexed like spilled (ascending).
// Every buffered key is validated by decoding it.
func (s *Sketch) contract(d *graphalg.DSU, forest *graph.Hypergraph, spilled []int) ([][]sketch.CutTerm, error) {
	terms := make([][]sketch.CutTerm, len(spilled))
	e := make(graph.Hyperedge, 0, s.dom.R())
	for v, ks := range s.keys {
		for i, key := range ks {
			var err error
			if e, err = s.dom.AppendDecode(e[:0], key); err != nil {
				return nil, err
			}
			// first is e's smallest unspilled endpoint, anchor its smallest
			// spilled one, coeff the unspilled endpoints' coefficient sum.
			first, anchor, coeff := -1, -1, int64(0)
			for j, x := range e {
				if s.spilled[x] {
					if anchor < 0 {
						anchor = x
					}
					continue
				}
				if first < 0 {
					first = x
				}
				if j == 0 {
					coeff += int64(len(e) - 1)
				} else {
					coeff--
				}
			}
			if first != v {
				continue
			}
			merged := false
			for _, x := range e[1:] {
				if d.Union(e[0], x) {
					merged = true
				}
			}
			if merged {
				// AddEdge clones e, so the scratch buffer stays ours.
				forest.MustAddEdge(e, 1)
			}
			if anchor >= 0 {
				a, _ := slices.BinarySearch(spilled, anchor)
				terms[a] = append(terms[a], sketch.CutTerm{Key: key, Delta: coeff * s.ws[v][i]})
			}
		}
	}
	return terms, nil
}

// observeOccupancy records the buffer-occupancy distribution and spill
// gauge at decode time (the natural low-frequency observation point).
func (s *Sketch) observeOccupancy() {
	if hm.occupancy == nil && hm.spilledVerts == nil {
		return
	}
	spilled := 0
	for v := range s.spilled {
		if s.spilled[v] {
			spilled++
			continue
		}
		hm.occupancy.Observe(float64(2*len(s.keys[v])) / float64(s.budget))
	}
	hm.spilledVerts.Set(float64(spilled))
}
