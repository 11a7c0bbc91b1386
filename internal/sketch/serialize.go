package sketch

import (
	"encoding/binary"
	"errors"

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
	// AppendShare appends vertex v's share to dst.
	AppendShare(dst []byte, v int) []byte
	// ShareSize returns the length AppendShare appends for v.
	ShareSize(v int) int
	// WalkShare applies op to the parts of vertex v's share in order, each
	// reading its part's serialization from the front of the bytes the
	// previous one left, and returns the rest; it stops at the first
	// error. With SharePart.CheckBinary it validates a share, with
	// SharePart.AddBinary it merges one (AddShare does both).
	WalkShare(v int, src []byte, op PartOp) (rest []byte, err error)
}

// SharePart is one serialized piece of a share: an L0 sampler
// (*l0.Sampler), or a Becker row (*recovery.SSparse).
type SharePart interface {
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

// AddShare merges (linearly) vertex v's share, which it must consume
// exactly, into s. The whole share is validated before the first part
// changes, so a rejected share leaves s as it was. The share must come
// from an identically constructed structure — the protocol's shared public
// randomness. That invariant is unchecked here: transported shares travel
// as codec frames, which verify the identity fingerprint first.
func AddShare(s Sharer, v int, share []byte) error {
	if err := noTrailing(s.WalkShare(v, share, SharePart.CheckBinary)); err != nil {
		return err
	}
	_, err := s.WalkShare(v, share, SharePart.AddBinary)
	return err
}

// Shares is the full state of a Sharer: its shares 0..n−1 in vertex order.
// Parameters and seeds are the structure's identity and are not part of
// it; the checkpoint frame around the state carries them. Size and Write
// are the (size, writer) pair codec.WriteCheckpoint takes.
type Shares struct{ Sharer }

// Size returns the length Write writes.
func (s Shares) Size() int {
	size := 0
	for v, n := 0, s.NumVertices(); v < n; v++ {
		size += s.ShareSize(v)
	}
	return size
}

// Write streams the state into a checkpoint frame one vertex share at a
// time, each appended in place in fw's buffer, which is first made room
// for the largest share.
func (s Shares) Write(fw *codec.FrameWriter) error {
	n, largest := s.NumVertices(), 0
	for v := 0; v < n; v++ {
		largest = max(largest, s.ShareSize(v))
	}
	fw.Reserve(largest)
	for v := 0; v < n; v++ {
		fw.Append(func(b []byte) []byte { return s.AppendShare(b, v) })
	}
	return nil
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
	for v, n := 0, s.NumVertices(); v < n && err == nil; v++ {
		b, err = s.WalkShare(v, b, op)
	}
	return noTrailing(b, err)
}

// Stack is the full state of independent vertex-sharded sketches kept side
// by side — vertexconn.Estimator's scales, sparsify's levels: each one's
// Shares, prefixed by its big-endian uint64 length so Add can split them
// back.
type Stack []Sharer

// Size returns the length Write writes.
func (st Stack) Size() int {
	n := 0
	for _, s := range st {
		n += 8 + Shares{s}.Size()
	}
	return n
}

// Write streams the state into a checkpoint frame: each member's length,
// then its shares.
func (st Stack) Write(fw *codec.FrameWriter) error {
	for _, s := range st {
		sh := Shares{s}
		size := uint64(sh.Size())
		fw.Append(func(b []byte) []byte { return binary.BigEndian.AppendUint64(b, size) })
		if err := sh.Write(fw); err != nil {
			return err
		}
	}
	return nil
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

// AppendShare appends vertex v's share — its sampler in every round.
func (s *SpanningSketch) AppendShare(dst []byte, v int) []byte {
	for t := range s.samplers {
		dst = s.samplers[t][v].AppendBinary(dst)
	}
	return dst
}

// ShareSize returns the length of vertex v's share.
func (s *SpanningSketch) ShareSize(v int) int {
	n := 0
	for t := range s.samplers {
		n += s.samplers[t][v].BinarySize()
	}
	return n
}

// WalkShare applies op to vertex v's sampler in every round (Sharer).
func (s *SpanningSketch) WalkShare(v int, src []byte, op PartOp) ([]byte, error) {
	var err error
	for t := range s.samplers {
		if src, err = op(&s.samplers[t][v], src); err != nil {
			return nil, err
		}
	}
	return src, nil
}

// AppendShare appends vertex v's share — its share of every layer.
func (s *SkeletonSketch) AppendShare(dst []byte, v int) []byte {
	for _, l := range s.layers {
		dst = l.AppendShare(dst, v)
	}
	return dst
}

// ShareSize returns the length of vertex v's share.
func (s *SkeletonSketch) ShareSize(v int) int {
	n := 0
	for _, l := range s.layers {
		n += l.ShareSize(v)
	}
	return n
}

// WalkShare walks vertex v's share of every layer (Sharer).
func (s *SkeletonSketch) WalkShare(v int, src []byte, op PartOp) ([]byte, error) {
	var err error
	for _, l := range s.layers {
		if src, err = l.WalkShare(v, src, op); err != nil {
			return nil, err
		}
	}
	return src, nil
}
