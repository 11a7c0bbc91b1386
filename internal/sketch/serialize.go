package sketch

import (
	"encoding/binary"
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
	if err := noTrailing(ps.Walk(share, SharePart.CheckBinary)); err != nil {
		return err
	}
	_, err := ps.Walk(share, SharePart.AddBinary)
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
// (codec.WriteCheckpoint).
func (s Shares) WriteCheckpoint(w io.Writer, tag codec.Tag, params []byte) (int64, error) {
	size, largest := s.sizes()
	return codec.WriteCheckpoint(w, tag, params, size, func(fw *codec.FrameWriter) error {
		s.write(fw, largest)
		return nil
	})
}

// write streams the state into a checkpoint frame one vertex share at a
// time, each appended in place in fw's buffer, which is first made room
// for the largest share.
func (s Shares) write(fw *codec.FrameWriter, largest int) {
	fw.Reserve(largest)
	s.each(func(ps Parts) { fw.Append(ps.Append) })
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

// Add merges a state (linearly), which it must consume exactly. On a
// freshly constructed structure this is an exact restore; on a non-empty
// one it adds the two streams' contents, which is itself meaningful by
// linearity. The whole state is validated before the first merge, so a
// rejected state leaves the structure as it was.
func (s Shares) Add(b []byte) error {
	if err := s.walk(b, SharePart.CheckBinary); err != nil {
		return err
	}
	return s.walk(b, SharePart.AddBinary)
}

// walk applies op to every share in vertex order, which must consume b
// exactly.
func (s Shares) walk(b []byte, op PartOp) error {
	var err error
	s.each(func(ps Parts) {
		if err == nil {
			b, err = ps.Walk(b, op)
		}
	})
	return noTrailing(b, err)
}

// Stack is the full state of independent vertex-sharded sketches kept side
// by side — vertexconn.Estimator's scales, sparsify's levels: each one's
// Shares, prefixed by its big-endian uint64 length so Add can split them
// back.
type Stack []Sharer

// WriteCheckpoint writes the state as a checkpoint frame of tag and params
// (codec.WriteCheckpoint): each member's length, then its shares.
func (st Stack) WriteCheckpoint(w io.Writer, tag codec.Tag, params []byte) (int64, error) {
	sizes, largest, total := make([]int, len(st)), make([]int, len(st)), 0
	for i, s := range st {
		sizes[i], largest[i] = Shares{s}.sizes()
		total += 8 + sizes[i]
	}
	return codec.WriteCheckpoint(w, tag, params, total, func(fw *codec.FrameWriter) error {
		for i, s := range st {
			fw.Append(func(b []byte) []byte { return binary.BigEndian.AppendUint64(b, uint64(sizes[i])) })
			Shares{s}.write(fw, largest[i])
		}
		return nil
	})
}

// Add merges a state (linearly), which it must consume exactly. Like
// Shares.Add it validates the whole state first.
func (st Stack) Add(b []byte) error {
	if err := st.walk(b, SharePart.CheckBinary); err != nil {
		return err
	}
	return st.walk(b, SharePart.AddBinary)
}

// walk applies op to every member's Shares in order, which must consume b
// exactly.
func (st Stack) walk(b []byte, op PartOp) error {
	for _, s := range st {
		if len(b) < 8 {
			return recovery.ErrShortBuffer
		}
		n := binary.BigEndian.Uint64(b)
		if b = b[8:]; uint64(len(b)) < n {
			return recovery.ErrShortBuffer
		}
		if err := (Shares{s}).walk(b[:n], op); err != nil {
			return err
		}
		b = b[n:]
	}
	return noTrailing(b, nil)
}

// noTrailing requires a merge to have consumed its input exactly.
func noTrailing(rest []byte, err error) error {
	if err == nil && len(rest) != 0 {
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
