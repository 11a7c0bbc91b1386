// Package stream defines the dynamic graph stream model of the paper: a
// sequence of hyperedge insertions and deletions that determines an input
// (hyper)graph, to be consumed one-way by linear sketches. It provides the
// update/stream types, stream construction helpers (shuffles, deletion
// churn, adversarial interleavings), a text serialization for the CLI
// tools, and the glue that feeds a stream into any sketch.
package stream

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"strconv"
	"strings"

	"graphsketch/internal/graph"
)

// Op is the type of a stream update.
type Op int8

const (
	// Insert adds one unit of weight to a hyperedge.
	Insert Op = 1
	// Delete removes one unit of weight from a hyperedge. A deletion is
	// only valid for a currently present edge (the standard strict
	// turnstile assumption for graph streams).
	Delete Op = -1
)

// Update is a single stream element.
type Update struct {
	Op   Op
	Edge graph.Hyperedge
}

// Stream is an ordered sequence of updates.
type Stream []Update

// Sink consumes weighted hyperedge updates; all sketches in this repository
// satisfy it.
type Sink interface {
	Update(e graph.Hyperedge, delta int64) error
}

// Apply feeds every update of s into the sink.
func Apply(s Stream, sink Sink) error {
	for i, u := range s {
		if err := sink.Update(u.Edge, int64(u.Op)); err != nil {
			return fmt.Errorf("stream: update %d (%v %v): %w", i, u.Op, u.Edge, err)
		}
	}
	return nil
}

// Materialize replays the stream into an explicit hypergraph — the ground
// truth the sketches are compared against. It returns an error if a
// deletion targets an absent edge.
func Materialize(s Stream, n, r int) (*graph.Hypergraph, error) {
	h, err := graph.NewHypergraph(n, r)
	if err != nil {
		return nil, err
	}
	for i, u := range s {
		if err := h.AddEdge(u.Edge, int64(u.Op)); err != nil {
			return nil, fmt.Errorf("stream: update %d: %w", i, err)
		}
	}
	return h, nil
}

// FromGraph returns an insert-only stream of h's edges (weights unrolled to
// unit insertions) in deterministic order.
func FromGraph(h *graph.Hypergraph) Stream {
	var s Stream
	for _, we := range h.WeightedEdges() {
		for i := int64(0); i < we.W; i++ {
			s = append(s, Update{Op: Insert, Edge: we.E})
		}
	}
	return s
}

// Shuffled returns a copy of s in random order. Note that shuffling an
// insert/delete stream can make a deletion precede its insertion; use
// WithChurn for valid randomized dynamic streams.
func Shuffled(s Stream, rng *rand.Rand) Stream {
	out := append(Stream(nil), s...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// WithChurn builds a valid dynamic stream whose final graph is final: the
// edges of churn (minus any overlap with final) are inserted, interleaved
// randomly with final's insertions, and then deleted in random order. The
// resulting stream exercises the deletion path heavily — roughly
// |churn| deletions against |final| surviving edges.
func WithChurn(final, churn *graph.Hypergraph, rng *rand.Rand) Stream {
	var inserts Stream
	var deletes Stream
	for _, e := range final.Edges() {
		inserts = append(inserts, Update{Op: Insert, Edge: e})
	}
	for _, e := range churn.Edges() {
		if final.Has(e) {
			continue
		}
		inserts = append(inserts, Update{Op: Insert, Edge: e})
		deletes = append(deletes, Update{Op: Delete, Edge: e})
	}
	rng.Shuffle(len(inserts), func(i, j int) { inserts[i], inserts[j] = inserts[j], inserts[i] })
	rng.Shuffle(len(deletes), func(i, j int) { deletes[i], deletes[j] = deletes[j], deletes[i] })
	return append(inserts, deletes...)
}

// InsertDeleteInsert builds the adversarial pattern used by experiment E8:
// first the edges of bait are inserted, then the edges of final, then bait
// is deleted (overlapping edges stay). An insert-only heuristic that makes
// irreversible keep/drop decisions while bait is present is driven into
// error; a linear sketch is oblivious to the interleaving.
func InsertDeleteInsert(bait, final *graph.Hypergraph) Stream {
	var s Stream
	for _, e := range bait.Edges() {
		if !final.Has(e) {
			s = append(s, Update{Op: Insert, Edge: e})
		}
	}
	for _, e := range final.Edges() {
		s = append(s, Update{Op: Insert, Edge: e})
	}
	for _, e := range bait.Edges() {
		if !final.Has(e) {
			s = append(s, Update{Op: Delete, Edge: e})
		}
	}
	return s
}

// Stats summarizes a stream.
type Stats struct {
	Updates   int
	Inserts   int
	Deletes   int
	MaxActive int // peak number of live edges
}

// Summarize computes stream statistics.
func Summarize(s Stream, n, r int) (Stats, error) {
	st := Stats{Updates: len(s)}
	live, err := graph.NewHypergraph(n, r)
	if err != nil {
		return st, err
	}
	for _, u := range s {
		switch u.Op {
		case Insert:
			st.Inserts++
		case Delete:
			st.Deletes++
		default:
			return st, fmt.Errorf("stream: unknown op %d", u.Op)
		}
		if err := live.AddEdge(u.Edge, int64(u.Op)); err != nil {
			return st, err
		}
		if c := live.EdgeCount(); c > st.MaxActive {
			st.MaxActive = c
		}
	}
	return st, nil
}

// WriteText serializes the stream in the line format
//
//   - v1 v2 [v3 ...]
//   - v1 v2 [v3 ...]
//
// with one update per line; '#' starts a comment.
func WriteText(w io.Writer, s Stream) error {
	bw := bufio.NewWriter(w)
	for _, u := range s {
		c := byte('+')
		if u.Op == Delete {
			c = '-'
		}
		if err := bw.WriteByte(c); err != nil {
			return err
		}
		for _, v := range u.Edge {
			fmt.Fprintf(bw, " %d", v)
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the format produced by WriteText.
func ReadText(r io.Reader) (Stream, error) {
	var s Stream
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("stream: line %d: need op and at least two vertices", lineNo)
		}
		var op Op
		switch fields[0] {
		case "+":
			op = Insert
		case "-":
			op = Delete
		default:
			return nil, fmt.Errorf("stream: line %d: bad op %q", lineNo, fields[0])
		}
		vs := make([]int, 0, len(fields)-1)
		for _, f := range fields[1:] {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("stream: line %d: bad vertex %q", lineNo, f)
			}
			vs = append(vs, v)
		}
		e, err := graph.NewHyperedge(vs...)
		if err != nil {
			return nil, fmt.Errorf("stream: line %d: %v", lineNo, err)
		}
		s = append(s, Update{Op: op, Edge: e})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if s == nil {
		return nil, errors.New("stream: no updates")
	}
	return s, nil
}

// SlidingWindow builds the stream of a sliding-window graph: edge i is
// inserted at step i and deleted again window steps later, so at every
// moment the live graph is the most recent `window` edges. This is the
// classic timestamped-interaction model (connections expire) and produces
// exactly interleaved insert/delete traffic, unlike WithChurn's two-phase
// shape. The stream materializes to the last `window` edges.
//
// Duplicate edges in the input are fine: multiplicities stack and expire
// individually.
func SlidingWindow(edges []graph.Hyperedge, window int) Stream {
	if window < 1 {
		window = 1
	}
	var s Stream
	for i, e := range edges {
		s = append(s, Update{Op: Insert, Edge: e})
		if i >= window {
			s = append(s, Update{Op: Delete, Edge: edges[i-window]})
		}
	}
	return s
}
