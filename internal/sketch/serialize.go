package sketch

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"

	"graphsketch/internal/codec"
	"graphsketch/internal/par"
	"graphsketch/internal/recovery"
)

// ErrShare is returned when a serialized vertex share is malformed.
var ErrShare = errors.New("sketch: malformed vertex share")

// Sharer is a vertex-sharded structure. Vertex v's share — its samplers
// across every round, layer or subgraph — is exactly the message player
// P_v sends to the referee in the simultaneous communication model of
// Becker et al.: the sketches are vertex-based, so v's share depends only
// on the updates incident to v, which is precisely P_v's input. A share is
// the raw interior of a codec share frame; a full state, the interior of a
// checkpoint frame, is the n shares in vertex order (Shares).
type Sharer interface {
	// NumVertices returns n, the number of shares.
	NumVertices() int
	// ShareParts appends the parts of vertex v's share to dst in wire
	// order: the share's one layout, which every function here walks.
	ShareParts(dst []SharePart, v int) []SharePart
}

// SharePart is one serialized piece of a share: an L0 sampler
// (*l0.Sampler), or a Becker row (*recovery.SSparse).
type SharePart interface {
	AppendBinary(b []byte) []byte
	// BinarySize returns the length AppendBinary appends. It reads the
	// part's cells: a block lists only its nonzero ones.
	BinarySize() int
	// CheckBinary validates a serialized part at the front of src without
	// changing anything and returns the rest.
	CheckBinary(src []byte) ([]byte, error)
	// AddCheckedBinary merges (linearly) a serialized part from the front
	// of src, which CheckBinary accepted, and returns the rest. It does not
	// check the bytes again: every caller checks them first.
	AddCheckedBinary(src []byte) ([]byte, error)
}

// PartOp reads one part's serialization from the front of src and returns
// the rest: SharePart.CheckBinary or SharePart.AddCheckedBinary.
type PartOp func(p SharePart, src []byte) ([]byte, error)

// Parts is one share's parts in wire order.
type Parts []SharePart

// AppendShare appends vertex v's share of s to dst.
func AppendShare(s Sharer, dst []byte, v int) []byte { return Parts(s.ShareParts(nil, v)).Append(dst) }

// ShareSize returns the length AppendShare appends for v.
func ShareSize(s Sharer, v int) int { return Parts(s.ShareParts(nil, v)).Size() }

// AddShare merges (linearly) vertex v's share, which it must consume
// exactly, into s. The whole share is validated before the first part
// changes, so a rejected share leaves s as it was. The share must come
// from an identically constructed structure — the protocol's shared public
// randomness. That invariant is unchecked here: transported shares travel
// as codec frames, which verify the identity fingerprint first.
func AddShare(s Sharer, v int, share []byte) error {
	ps := Parts(s.ShareParts(nil, v))
	rest, err := ps.Walk(share, SharePart.CheckBinary)
	if err = noTrailing(err, len(rest)); err != nil {
		return err
	}
	_, err = ps.Walk(share, SharePart.AddCheckedBinary)
	return err
}

// Append appends the share's serialization to dst.
func (ps Parts) Append(dst []byte) []byte {
	for _, p := range ps {
		dst = p.AppendBinary(dst)
	}
	return dst
}

// Size returns the length Append appends.
func (ps Parts) Size() int {
	n := 0
	for _, p := range ps {
		n += p.BinarySize()
	}
	return n
}

// Walk applies op to the parts in order, each reading from where the last
// left off, and returns the rest; it stops at the first error.
func (ps Parts) Walk(src []byte, op PartOp) ([]byte, error) {
	var err error
	for _, p := range ps {
		if src, err = op(p, src); err != nil {
			return nil, err
		}
	}
	return src, nil
}

// Shares is the full state of a Sharer: its shares 0..n−1 in vertex order.
// Parameters and seeds are the structure's identity and are not part of
// it; the checkpoint frame around the state carries them.
type Shares struct{ Sharer }

// WriteCheckpoint writes the state as a checkpoint frame of tag and params
// (codec.WriteCheckpoint). The frame declares its length first, and a
// share's length is known only by reading its cells, so the state is read
// twice: once to size every share, and once to write the shares, in
// batches of about 1/writeBatches of the state, each appended in place in
// the frame writer's buffer, which is first made room for the longest
// batch. Both passes spread their vertices over up to GOMAXPROCS
// goroutines (fanOut).
func (s Shares) WriteCheckpoint(w io.Writer, tag codec.Tag, params []byte) (int64, error) {
	f := s.fan()
	n, end := s.NumVertices(), f.ends()
	return codec.WriteCheckpoint(w, tag, params, end[n], func(fw *codec.FrameWriter) error {
		most := 0
		for lo, hi := 0, 0; lo < n; lo = hi {
			hi = batchEnd(end, lo)
			most = max(most, end[hi]-end[lo])
		}
		fw.Reserve(most)
		var err error
		for lo, hi := 0, 0; lo < n && err == nil; lo = hi {
			hi = batchEnd(end, lo)
			fw.Append(func(b []byte) []byte {
				m := len(b)
				b = slices.Grow(b, end[hi]-end[lo])[:m+end[hi]-end[lo]]
				err = f.each(lo, hi, func(v int, ps Parts) error {
					at := b[m+end[v]-end[lo] : m+end[v]-end[lo] : m+end[v+1]-end[lo]]
					if got := len(ps.Append(at)); got != cap(at) {
						return fmt.Errorf("sketch: vertex %d share of %d bytes sized %d: %w", v, got, cap(at), codec.ErrStateLength)
					}
					return nil
				})
				if err != nil {
					return b[:m]
				}
				return b
			})
		}
		return err
	})
}

// writeBatches is the most batches a checkpoint writes its state in: a
// batch is the shares that start in one 1/writeBatches of the state, so a
// state of many short shares takes exactly that many, whatever its size,
// and allocates as often, and a batch's buffer is about 1/32 of the state
// and one share, far shorter than the frame.
const writeBatches = 32

// batchEnd returns the vertex that ends the batch starting at vertex lo,
// given where every share ends (fanOut.ends): the first vertex past lo
// whose share starts in another 1/writeBatches of the state.
func batchEnd(end []int, lo int) int {
	n, size := len(end)-1, max(end[len(end)-1], 1)
	hi := lo + 1
	for hi < n && end[hi]*writeBatches/size == end[lo]*writeBatches/size {
		hi++
	}
	return hi
}

// fanOut runs a function on every vertex share of a range, spreading the
// range's vertices over up to GOMAXPROCS goroutines (par.ForEach) as runs
// of vertices, each run listing its vertices' parts into its own reused
// buffer. Listing, sizing and writing a share only read the structure.
type fanOut struct {
	s     Shares
	lists [][]SharePart
}

// fan returns a fanOut for s. Each run's list starts with room for
// listCap parts, more than a spanning or hybrid share has below 2⁶⁰
// vertices, so writing one allocates no more at a larger n, where a share
// has more rounds.
func (s Shares) fan() *fanOut {
	lists := make([][]SharePart, 4*runtime.GOMAXPROCS(0))
	backing := make([]SharePart, len(lists)*listCap)
	for r := range lists {
		lists[r] = backing[r*listCap : r*listCap : (r+1)*listCap]
	}
	return &fanOut{s: s, lists: lists}
}

const listCap = 64

// each calls f with the parts of every vertex in [lo, hi), f being safe to
// call for distinct vertices at once, and returns its first error by run.
func (f *fanOut) each(lo, hi int, fn func(v int, ps Parts) error) error {
	runs := min(hi-lo, len(f.lists))
	return par.ForEach(0, runs, func(r int) error {
		for v := lo + r*(hi-lo)/runs; v < lo+(r+1)*(hi-lo)/runs; v++ {
			f.lists[r] = f.s.ShareParts(f.lists[r][:0], v)
			if err := fn(v, f.lists[r]); err != nil {
				return err
			}
		}
		return nil
	})
}

// ends returns where each vertex's share ends in the state: v's share is
// state[ends[v]:ends[v+1]], and ends[n] is the state's length.
func (f *fanOut) ends() []int {
	n := f.s.NumVertices()
	end := make([]int, n+1)
	f.each(0, n, func(v int, ps Parts) error {
		end[v+1] = ps.Size()
		return nil
	})
	for v := range n {
		end[v+1] += end[v]
	}
	return end
}

// each calls f with every vertex's share parts in vertex order, listed
// into one reused buffer, so a pass allocates once, not once per vertex.
func (s Shares) each(f func(ps Parts)) {
	var buf []SharePart
	for v, n := 0, s.NumVertices(); v < n; v++ {
		buf = s.ShareParts(buf[:0], v)
		f(buf)
	}
}

// Add merges a state (linearly) from state, which it must consume
// exactly. On a freshly constructed structure this is an exact restore; on
// a non-empty one it adds the two streams' contents, which is itself
// meaningful by linearity. Every share is checked once. A Verified state,
// ReadFrom's, is checked whole first, on a copy that leaves state unread,
// so a rejected one leaves the structure as it was; the merge then reads
// the checked shares without checking them again. A streamed one is merged
// a share at a time, each checked first in the window state serves, which
// grows to the largest share; it can leave the structure partly merged,
// and codec.Open then drops it.
func (s Shares) Add(state *codec.StateReader) error {
	if !state.Verified() {
		return s.merge(state, true, true)
	}
	dry := *state
	if err := s.merge(&dry, true, false); err != nil {
		return err
	}
	return s.merge(state, false, true)
}

// merge runs mergeShare over the rest of state, which must be s's shares
// in vertex order.
func (s Shares) merge(state *codec.StateReader, check, add bool) error {
	var err error
	s.each(func(ps Parts) {
		if err == nil {
			err = mergeShare(ps, state, check, add)
		}
	})
	return noTrailing(err, state.Len())
}

// mergeShare reads the share of parts ps at the front of state's window
// and consumes it. With check set it checks the share first, reading on
// while the share runs past the window but not past the state; with add
// set it merges the share, which must have been checked if check is unset.
func mergeShare(ps Parts, state *codec.StateReader, check, add bool) error {
	for want := 0; ; {
		w, err := state.Next(want)
		if err != nil {
			return err
		}
		rest := w
		if check {
			rest, err = ps.Walk(w, SharePart.CheckBinary)
			if err != nil && len(w) < state.Len() && (errors.Is(err, recovery.ErrShortBuffer) || errors.Is(err, codec.ErrTruncated)) {
				want = len(w) + 1
				continue
			}
		}
		if err == nil && add {
			rest, err = ps.Walk(w, SharePart.AddCheckedBinary)
		}
		if err != nil {
			return err
		}
		state.Discard(len(w) - len(rest))
		return nil
	}
}

// noTrailing requires a merge to have consumed its input exactly: left
// bytes remain.
func noTrailing(err error, left int) error {
	if err == nil && left != 0 {
		return ErrShare
	}
	return err
}

// ShareParts appends vertex v's parts: its sampler in every round.
func (s *SpanningSketch) ShareParts(dst []SharePart, v int) []SharePart {
	for t := range s.samplers {
		dst = append(dst, &s.samplers[t][v])
	}
	return dst
}

// ShareParts appends vertex v's parts: its share of every layer.
func (s *SkeletonSketch) ShareParts(dst []SharePart, v int) []SharePart {
	for _, l := range s.layers {
		dst = l.ShareParts(dst, v)
	}
	return dst
}
