package sketch

import (
	"errors"
	"io"

	"graphsketch/internal/codec"
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
	BinarySize() int
	// CheckBinary validates a serialized part at the front of src without
	// changing anything and returns the rest.
	CheckBinary(src []byte) ([]byte, error)
	// AddBinary merges (linearly) a serialized part from the front of src
	// and returns the rest.
	AddBinary(src []byte) ([]byte, error)
}

// PartOp reads one part's serialization from the front of src and returns
// the rest: SharePart.CheckBinary or SharePart.AddBinary.
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
	_, err = ps.Walk(share, SharePart.AddBinary)
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

// sizes returns the length of the state and of its largest share.
func (s Shares) sizes() (size, largest int) {
	s.each(func(ps Parts) {
		n := ps.Size()
		size, largest = size+n, max(largest, n)
	})
	return size, largest
}

// WriteCheckpoint writes the state as a checkpoint frame of tag and params
// (codec.WriteCheckpoint). The state streams one vertex share at a time,
// each appended in place in the frame writer's buffer, which is first made
// room for the largest share.
func (s Shares) WriteCheckpoint(w io.Writer, tag codec.Tag, params []byte) (int64, error) {
	size, largest := s.sizes()
	return codec.WriteCheckpoint(w, tag, params, size, func(fw *codec.FrameWriter) error {
		fw.Reserve(largest)
		s.each(func(ps Parts) { fw.Append(ps.Append) })
		return nil
	})
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
// meaningful by linearity. The shares are merged one at a time, each
// checked first in the window state serves, which grows to the largest
// share. A Verified state, ReadFrom's, is first checked whole, on a copy
// that leaves state unread, so a rejected one leaves the structure as it
// was; a streamed one can leave it partly merged, and codec.Open then
// drops it.
func (s Shares) Add(state *codec.StateReader) error {
	if state.Verified() {
		dry := *state
		if err := s.merge(&dry, false); err != nil {
			return err
		}
	}
	return s.merge(state, true)
}

// merge merges the rest of state, which must be s's shares in vertex
// order, a share at a time; with merge unset it only checks them.
func (s Shares) merge(state *codec.StateReader, merge bool) error {
	var err error
	s.each(func(ps Parts) {
		if err == nil {
			err = mergeShare(ps, state, merge)
		}
	})
	return noTrailing(err, state.Len())
}

// mergeShare checks the share of parts ps at the front of state's window,
// reading on while the share runs past the window but not past the state,
// then merges it unless merge is unset and consumes it.
func mergeShare(ps Parts, state *codec.StateReader, merge bool) error {
	for want := 0; ; {
		w, err := state.Next(want)
		if err != nil {
			return err
		}
		rest, err := ps.Walk(w, SharePart.CheckBinary)
		if err != nil && len(w) < state.Len() && (errors.Is(err, recovery.ErrShortBuffer) || errors.Is(err, codec.ErrTruncated)) {
			want = len(w) + 1
			continue
		}
		if err == nil && merge {
			_, err = ps.Walk(w, SharePart.AddBinary)
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
