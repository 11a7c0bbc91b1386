// Package hybrid implements an adaptive exact/sketch representation for
// sparse dynamic streams: each vertex keeps its incidence updates in a small
// exact buffer (sorted canonical edge keys with net weights) until the
// buffer overflows a fixed word budget, at which point the vertex is
// *spilled* — its buffered entries are replayed into a wrapped spanning
// sketch and every later update at that vertex goes straight to the sketch.
// Connectivity on sparse graphs is the use the representation is designed
// for (De Man et al., Hybrid Sketching Methods for Dynamic Connectivity on
// Sparse Graphs).
//
// The decomposition is per vertex, so one hyperedge may be exact on one
// endpoint and sketched on another. Because both halves are linear in the
// stream — the buffer holds literal net weights, the inner sketch is a
// linear map — the sum
//
//	state(v) = buffer_v + sketch_v
//
// always equals what the pure sketch would hold, and spilling a vertex is a
// semantic no-op: it moves mass from the exact term to the sketched term
// without changing their sum. That is the spill invariant every operation
// here preserves, and it is why Merge, checkpoint restore (a linear
// ReadFrom), the Boruvka rounds and the engine's sharded ingestion all keep
// working unchanged on the spilled part (the properties Theorem 2 of the
// source paper needs). SpillAll makes the invariant testable: after
// spilling every vertex the inner sketch holds the same linear state as a
// pure sketch fed the same stream, and writes the same bytes. That holds on
// streams with deletions too: an insert/delete pair that cancels inside a
// buffer never touches the inner's samplers, while the pure sketch lazily
// allocates sampler levels for it that end all zero, and a sampler's wire
// form lists only levels up to its highest nonzero cell, so those levels
// write nothing.
//
// Below the spill threshold the win is large on both axes: a buffered
// update is a binary search plus an insert into a ≤B/2-entry array (tens of
// nanoseconds, zero allocations in steady state) instead of Θ(rounds ×
// rows) sampler cell updates, and a vertex of degree d costs 2d words
// instead of the sampler stack's per-level cell blocks. Decoding contracts
// every edge the buffers know exactly first, then samples only the
// components that contain a spilled vertex (see decode.go).
//
// Spilling is monotone: deletions that drop a vertex back below the budget
// do not un-spill it. Un-spilling would require subtracting the vertex's
// share back out of the sketch, which is possible in principle (linearity
// again) but needs an exact record of what was spilled — exactly the state
// the spill discarded.
package hybrid

import (
	"errors"
	"fmt"
	"log/slog"

	"graphsketch"
	"graphsketch/internal/graph"
	"graphsketch/internal/obs"
	"graphsketch/internal/sketch"
)

// DefaultBudgetWords is the per-vertex exact-buffer budget used when the
// caller passes budget <= 0: 16 incidence entries of two words each.
const DefaultBudgetWords = 32

var (
	// ErrBudgetMismatch is returned by Merge when the two hybrids were
	// constructed with different exact-buffer budgets.
	ErrBudgetMismatch = errors.New("hybrid: exact-buffer budgets differ")
	// ErrInnerMismatch is returned when the two inner sketches were
	// constructed differently (their wire fingerprints disagree).
	ErrInnerMismatch = errors.New("hybrid: inner sketches constructed differently")
)

// Sketch is the adaptive hybrid wrapper. It satisfies the same contracts
// as the inner spanning sketch — Updater, Mergeable, Sharded, Checkpointer
// and sketch.Sharer — and is safe for the parallel engine: all mutable
// state is owned per vertex (buffers, spill flags), so workers applying
// UpdateBatchRange over disjoint vertex ranges never write the same
// element.
type Sketch struct {
	inner *sketch.SpanningSketch
	dom   graph.Domain

	budget     int // per-vertex buffer budget in 64-bit words
	maxEntries int // budget / 2 entries of (key, weight)

	// spilled[v] reports whether v's buffer overflowed and was pushed into
	// the inner sketch. Writes target distinct elements from distinct
	// vertex ranges, which the memory model treats as distinct locations.
	spilled []bool
	// keys[v] holds the sorted canonical edge keys currently buffered at v;
	// ws[v][i] is the net stream weight of keys[v][i]. Entries whose net
	// weight returns to zero are removed, so len(keys[v]) is exactly v's
	// support size while it remains exact.
	keys [][]uint64
	ws   [][]int64
	// exact[v] is v's exact share part, held here so listing a share's
	// parts boxes nothing.
	exact []exactPart
}

// New wraps inner, a spanning sketch, in the adaptive hybrid
// representation: the only inner a hybrid takes, and what its checkpoint
// opener refuses any other for. budget is the per-vertex exact-buffer
// budget in 64-bit words (each buffered incidence entry costs two: key and
// net weight); budget <= 0 selects DefaultBudgetWords. The inner sketch is
// normally empty; a non-empty inner is legal and simply contributes
// linearly.
func New(inner *sketch.SpanningSketch, budget int) (*Sketch, error) {
	if inner == nil {
		return nil, errors.New("hybrid: nil inner sketch")
	}
	if budget <= 0 {
		budget = DefaultBudgetWords
	}
	if budget < 2 {
		return nil, fmt.Errorf("hybrid: budget of %d words cannot hold one entry", budget)
	}
	return build(inner, budget), nil
}

// build returns an all-exact hybrid over inner with a valid budget.
func build(inner *sketch.SpanningSketch, budget int) *Sketch {
	dom := inner.Domain()
	n := dom.N()
	s := &Sketch{
		inner:      inner,
		dom:        dom,
		budget:     budget,
		maxEntries: budget / 2,
		spilled:    make([]bool, n),
		keys:       make([][]uint64, n),
		ws:         make([][]int64, n),
		exact:      make([]exactPart, n),
	}
	for v := range s.exact {
		s.exact[v] = exactPart{s, v}
	}
	return s
}

// Inner returns the wrapped spanning sketch. Its state is only the spilled
// part of the stream; decode through the hybrid's own Decode.
func (s *Sketch) Inner() graphsketch.Sharded { return s.inner }

// Domain returns the hyperedge key domain.
func (s *Sketch) Domain() graph.Domain { return s.dom }

// Budget returns the per-vertex exact-buffer budget in words.
func (s *Sketch) Budget() int { return s.budget }

// NumVertices returns n, the vertex space the sketch shards over.
func (s *Sketch) NumVertices() int { return s.dom.N() }

// Spilled reports whether vertex v has been spilled into the inner sketch.
func (s *Sketch) Spilled(v int) bool { return s.spilled[v] }

// SpilledCount returns the number of spilled vertices.
func (s *Sketch) SpilledCount() int {
	c := 0
	for _, sp := range s.spilled {
		if sp {
			c++
		}
	}
	return c
}

// BufferLen returns the number of exact entries buffered at v (0 once
// spilled).
func (s *Sketch) BufferLen(v int) int { return len(s.keys[v]) }

// Update applies the insertion (delta = +1) or deletion (delta = −1) of
// hyperedge e, or a weighted variant (graphsketch.Updater).
func (s *Sketch) Update(e graph.Hyperedge, delta int64) error {
	return s.UpdateEdgeRange(e, delta, 0, s.dom.N())
}

// UpdateEdgeRange applies the update restricted to endpoints v with
// lo <= v < hi, preserving the Sharded partition contract: unspilled
// endpoints absorb the delta in their exact buffer (possibly overflowing
// and spilling), spilled endpoints forward to the inner sketch's share of
// exactly that vertex.
func (s *Sketch) UpdateEdgeRange(e graph.Hyperedge, delta int64, lo, hi int) error {
	if delta == 0 {
		return nil
	}
	key, err := s.dom.Encode(e)
	if err != nil {
		return err
	}
	var one []graph.WeightedEdge // lazily built, only for spilled endpoints
	exact, sketched := false, false
	for _, v := range e {
		if v < lo || v >= hi {
			continue
		}
		if s.spilled[v] {
			if one == nil {
				one = []graph.WeightedEdge{{E: e, W: delta}}
			}
			if err := s.inner.UpdateBatchRange(one, v, v+1); err != nil {
				return err
			}
			sketched = true
			continue
		}
		if err := s.bufferAdd(v, e, key, delta); err != nil {
			return err
		}
		exact = true
	}
	if exact {
		hm.exactRouted.Inc()
	}
	if sketched {
		hm.sketchRouted.Inc()
	}
	return nil
}

// UpdateBatch applies a slice of weighted updates in order
// (graphsketch.Updater).
func (s *Sketch) UpdateBatch(batch []graph.WeightedEdge) error {
	return s.UpdateBatchRange(batch, 0, s.dom.N())
}

// UpdateBatchRange applies the batch restricted to endpoints in [lo, hi)
// (graphsketch.Sharded). Maximal runs of consecutive updates whose in-range
// endpoints are all already spilled are forwarded to the inner sketch as
// single sub-batches, preserving its per-edge hash amortization — a fully
// spilled hybrid therefore ingests dense batches at the inner sketch's
// speed, which is what keeps the dense benchmarks regression-free.
func (s *Sketch) UpdateBatchRange(batch []graph.WeightedEdge, lo, hi int) error {
	run := 0
	for i := range batch {
		if s.allSpilled(batch[i].E, lo, hi) {
			continue
		}
		if run < i {
			if err := s.inner.UpdateBatchRange(batch[run:i], lo, hi); err != nil {
				return err
			}
			hm.sketchRouted.Add(int64(i - run))
		}
		if err := s.UpdateEdgeRange(batch[i].E, batch[i].W, lo, hi); err != nil {
			return err
		}
		run = i + 1
	}
	if run < len(batch) {
		if err := s.inner.UpdateBatchRange(batch[run:], lo, hi); err != nil {
			return err
		}
		hm.sketchRouted.Add(int64(len(batch) - run))
	}
	return nil
}

// allSpilled reports whether every in-range endpoint of e is spilled (edges
// with no in-range endpoint count: forwarding them is a no-op either way).
func (s *Sketch) allSpilled(e graph.Hyperedge, lo, hi int) bool {
	for _, v := range e {
		if v >= lo && v < hi && !s.spilled[v] {
			return false
		}
	}
	return true
}

// bufferAdd folds delta for edge (e, key) into v's exact buffer, spilling v
// when a new entry would exceed the budget. v must not be spilled.
func (s *Sketch) bufferAdd(v int, e graph.Hyperedge, key uint64, delta int64) error {
	if delta == 0 {
		return nil
	}
	ks := s.keys[v]
	lo, hi := 0, len(ks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ks[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ks) && ks[lo] == key {
		w := s.ws[v][lo] + delta
		if w == 0 {
			// Net weight back to zero: the edge is gone; keep len(keys[v])
			// equal to v's true support so the budget check stays exact.
			s.keys[v] = append(ks[:lo], ks[lo+1:]...)
			s.ws[v] = append(s.ws[v][:lo], s.ws[v][lo+1:]...)
		} else {
			s.ws[v][lo] = w
		}
		return nil
	}
	if len(ks) >= s.maxEntries {
		// Overflow: v's support no longer fits the exact budget. Spill the
		// buffer into the inner sketch, then route this update after it.
		if err := s.spill(v); err != nil {
			return err
		}
		return s.inner.UpdateBatchRange([]graph.WeightedEdge{{E: e, W: delta}}, v, v+1)
	}
	s.keys[v] = append(ks, 0)
	copy(s.keys[v][lo+1:], s.keys[v][lo:])
	s.keys[v][lo] = key
	s.ws[v] = append(s.ws[v], 0)
	copy(s.ws[v][lo+1:], s.ws[v][lo:])
	s.ws[v][lo] = delta
	return nil
}

// spill moves v's buffer into the inner sketch (see move) and counts it as
// a spill of this sketch.
func (s *Sketch) spill(v int) error {
	hm.spills.Inc()
	hm.spillOccupancy.Observe(float64(2*len(s.keys[v])) / float64(s.budget))
	obs.RecordEvent("hybrid.spill", slog.Int("vertex", v), slog.Int("entries", len(s.keys[v])), slog.Int("budget", s.budget))
	return s.move(v)
}

// move replays v's buffered entries into the inner sketch's share of v and
// marks v spilled. By linearity this changes nothing the sketch represents.
func (s *Sketch) move(v int) error {
	ks, vs := s.keys[v], s.ws[v]
	s.keys[v], s.ws[v] = nil, nil
	s.spilled[v] = true
	return s.replayExact(v, ks, vs)
}

// replayExact applies buffered (key, weight) entries to the inner sketch,
// restricted to vertex v's share.
func (s *Sketch) replayExact(v int, ks []uint64, vs []int64) error {
	if len(ks) == 0 {
		return nil
	}
	batch := make([]graph.WeightedEdge, 0, len(ks))
	for i, key := range ks {
		e, err := s.dom.Decode(key)
		if err != nil {
			return err
		}
		batch = append(batch, graph.WeightedEdge{E: e, W: vs[i]})
	}
	return s.inner.UpdateBatchRange(batch, v, v+1)
}

// SpillAll spills every still-exact vertex. Afterwards the inner sketch
// holds the whole stream: its checkpoint frame is byte-identical to that of
// a pure sketch fed the same updates, which is how the property tests pin
// the spill invariant.
//
// It moves buffers without counting them as spills: hybrid_spills_total
// counts buffers that overflowed their budget or met a spilled vertex in a
// merge.
func (s *Sketch) SpillAll() error {
	for v := range s.spilled {
		if !s.spilled[v] {
			if err := s.move(v); err != nil {
				return err
			}
		}
	}
	return nil
}

// Merge adds another hybrid sketch (graphsketch.Mergeable) without mutating
// it. Mixed exact/spilled vertex pairs resolve by spilling the exact side —
// the union of two streams at a vertex where either overflowed its budget
// has certainly overflowed it too — then the inner sketches merge linearly.
func (s *Sketch) Merge(o graphsketch.Sketch) error {
	ho, ok := o.(*Sketch)
	if !ok {
		return graphsketch.ErrMergeMismatch
	}
	if s.budget != ho.budget {
		return ErrBudgetMismatch
	}
	if s.inner.Fingerprint() != ho.inner.Fingerprint() {
		return ErrInnerMismatch
	}
	if err := s.mergeParts(ho.spilled, ho.keys, ho.ws); err != nil {
		return err
	}
	return s.inner.Merge(ho.inner)
}

// mergeParts folds another hybrid's exact/spill decomposition into s; the
// caller is responsible for then merging the corresponding inner sketch.
func (s *Sketch) mergeParts(spilled []bool, keys [][]uint64, ws [][]int64) error {
	if len(spilled) != len(s.spilled) {
		return ErrInnerMismatch
	}
	for v := range spilled {
		if err := s.addVertex(v, spilled[v], keys[v], ws[v]); err != nil {
			return err
		}
	}
	return nil
}

// addVertex folds another hybrid's vertex v — spilled, or holding the exact
// entries ks, vs — into s's. A spilled vertex spills ours: the union of two
// streams at a vertex where either overflowed its budget has certainly
// overflowed it too. An empty buffer has nothing to spill and only takes
// the mark, so a restore onto a fresh hybrid counts no spills.
func (s *Sketch) addVertex(v int, spilled bool, ks []uint64, vs []int64) error {
	switch {
	case s.spilled[v]:
		// Ours is already sketched: replay their exact entries into it.
		return s.replayExact(v, ks, vs)
	case spilled && len(s.keys[v]) == 0:
		s.spilled[v], s.keys[v], s.ws[v] = true, nil, nil
		return nil
	case spilled:
		return s.spill(v)
	}
	return s.addExact(v, ks, vs)
}

// addExact folds exact entries into v's buffer; if the fold overflows the
// budget mid-way the remainder follows the freshly spilled vertex into the
// inner sketch.
func (s *Sketch) addExact(v int, ks []uint64, vs []int64) error {
	for i, key := range ks {
		if s.spilled[v] {
			return s.replayExact(v, ks[i:], vs[i:])
		}
		e, err := s.dom.Decode(key)
		if err != nil {
			return err
		}
		if err := s.bufferAdd(v, e, key, vs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a deep copy (buffers, spill flags, and inner sketch).
func (s *Sketch) Clone() *Sketch {
	cp := build(s.inner.Clone(), s.budget)
	copy(cp.spilled, s.spilled)
	for v := range s.keys {
		if len(s.keys[v]) > 0 {
			cp.keys[v] = append([]uint64(nil), s.keys[v]...)
			cp.ws[v] = append([]int64(nil), s.ws[v]...)
		}
	}
	return cp
}

// Words returns the memory footprint in 64-bit words: the inner sketch plus
// two words per buffered entry plus the spill flags (one word per 64
// vertices).
func (s *Sketch) Words() int {
	w := s.inner.Words() + (len(s.spilled)+63)/64
	for v := range s.keys {
		w += 2 * len(s.keys[v])
	}
	return w
}

// StateWords returns the message-size portion of Words: the inner sketch's
// cell state (its Words minus the interned shared randomness) plus the
// buffers and spill flags. This is the number the sparse-stream space
// comparison against the pure sketch's StateWords uses.
func (s *Sketch) StateWords() int {
	w := s.inner.Words() - s.inner.SharedWords() + (len(s.spilled)+63)/64
	for v := range s.keys {
		w += 2 * len(s.keys[v])
	}
	return w
}

var (
	_ graphsketch.Sharded      = (*Sketch)(nil)
	_ graphsketch.Checkpointer = (*Sketch)(nil)
	_ sketch.Sharer            = (*Sketch)(nil)
)
