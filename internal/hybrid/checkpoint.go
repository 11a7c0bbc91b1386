package hybrid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"graphsketch"
	"graphsketch/internal/codec"
	"graphsketch/internal/sketch"
)

// Wire format. A hybrid checkpoint frame's params are the exact-buffer
// budget, then the inner spanning sketch's identity (sketch.AppendInner:
// the spanning tag word and its own params words), so the opener rebuilds
// the empty inner through the sketch package's own reader, which refuses
// any other tag. The state is the hybrid's
// vertex shares in vertex order (sketch.Shares), as for every other
// vertex-sharded structure: vertex v's share is the inner's share of v,
// then v's exact part — a little-endian uint32 entry count, or
// spilledMark for a spilled vertex, then the buffer's (key, weight) pairs
// in increasing key order, each two little-endian uint64s.

// spilledMark is the entry count that marks a spilled vertex.
const spilledMark = math.MaxUint32

func (s *Sketch) wireParams() []byte {
	return sketch.AppendInner(codec.AppendUint64s(nil, uint64(s.budget)), s.inner)
}

// Fingerprint returns the sketch's wire identity (codec.Fingerprint over
// budget + the inner's identity). Frames are exchangeable iff fingerprints
// agree, which requires identically constructed inners.
func (s *Sketch) Fingerprint() uint64 {
	return codec.Fingerprint(codec.TagHybrid, s.wireParams())
}

// WriteTo writes a self-describing checkpoint frame (graphsketch.Checkpointer).
func (s *Sketch) WriteTo(w io.Writer) (int64, error) {
	return sketch.Shares{Sharer: s}.WriteCheckpoint(w, codec.TagHybrid, s.wireParams())
}

// ReadFrom reads a checkpoint frame and merges its state into the sketch
// (linearly — on a fresh sketch this is an exact restore). The frame must
// carry this sketch's fingerprint; a frame from a differently-constructed
// hybrid (different budget or inner) fails with codec.ErrFingerprint.
func (s *Sketch) ReadFrom(r io.Reader) (int64, error) {
	return codec.ReadCheckpoint(r, codec.TagHybrid, s.Fingerprint(), sketch.Shares{Sharer: s}.Add)
}

// ShareParts appends vertex v's parts (sketch.Sharer): the inner's share
// of v, then v's exact part.
func (s *Sketch) ShareParts(dst []sketch.SharePart, v int) []sketch.SharePart {
	return append(s.inner.ShareParts(dst, v), &s.exact[v])
}

// exactPart is vertex v's exact part of its hybrid share.
type exactPart struct {
	s *Sketch
	v int
}

// BinarySize returns the length AppendBinary appends.
func (p *exactPart) BinarySize() int { return 4 + 16*len(p.s.keys[p.v]) }

// AppendBinary appends the part: spilledMark, or the count and the pairs.
func (p *exactPart) AppendBinary(b []byte) []byte {
	s, v := p.s, p.v
	if s.spilled[v] {
		return binary.LittleEndian.AppendUint32(b, spilledMark)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.keys[v])))
	for i, key := range s.keys[v] {
		b = binary.LittleEndian.AppendUint64(b, key)
		b = binary.LittleEndian.AppendUint64(b, uint64(s.ws[v][i]))
	}
	return b
}

// CheckBinary validates the part at the front of src and returns the rest.
// The count must be within the budget, and the keys must increase
// strictly, each the key of an edge at v, with nonzero weights.
func (p *exactPart) CheckBinary(src []byte) ([]byte, error) {
	s, v := p.s, p.v
	pairs, _, rest, err := p.split(src)
	if err != nil {
		return nil, err
	}
	var buf [8]int
	for i := 0; i < len(pairs); i += 16 {
		key := binary.LittleEndian.Uint64(pairs[i:])
		e, err := s.dom.AppendDecode(buf[:0], key)
		switch {
		case i > 0 && key <= binary.LittleEndian.Uint64(pairs[i-16:]):
			err = errors.New("keys not strictly increasing")
		case binary.LittleEndian.Uint64(pairs[i+8:]) == 0:
			err = errors.New("a zero-weight entry")
		case err == nil && !slices.Contains(e, v):
			err = fmt.Errorf("key %d, whose edge misses the vertex", key)
		}
		if err != nil {
			return nil, fmt.Errorf("hybrid: vertex %d buffer: %v: %w", v, err, codec.ErrUnknownType)
		}
	}
	return rest, nil
}

// AddCheckedBinary merges the part at the front of src, which CheckBinary
// accepted, into v and returns the rest. A vertex with neither entries nor
// the spilled mark adopts the part's buffer as it is.
func (p *exactPart) AddCheckedBinary(src []byte) ([]byte, error) {
	pairs, spilled, rest, err := p.split(src)
	if err != nil {
		return nil, err
	}
	var ks []uint64
	var vs []int64
	if len(pairs) > 0 {
		ks, vs = make([]uint64, len(pairs)/16), make([]int64, len(pairs)/16)
		for i := range ks {
			ks[i] = binary.LittleEndian.Uint64(pairs[16*i:])
			vs[i] = int64(binary.LittleEndian.Uint64(pairs[16*i+8:]))
		}
	}
	s, v := p.s, p.v
	if !spilled && !s.spilled[v] && len(s.keys[v]) == 0 {
		s.keys[v], s.ws[v] = ks, vs
		return rest, nil
	}
	return rest, s.addVertex(v, spilled, ks, vs)
}

// split splits the part at the front of src into its pairs, whether it
// marks v spilled, and the rest, checking only the count against the
// budget and that the bytes are there.
func (p *exactPart) split(src []byte) (pairs []byte, spilled bool, rest []byte, err error) {
	s, v := p.s, p.v
	if len(src) < 4 {
		return nil, false, nil, fmt.Errorf("hybrid: exact part of vertex %d missing: %w", v, codec.ErrTruncated)
	}
	cnt := binary.LittleEndian.Uint32(src)
	if src = src[4:]; cnt == spilledMark {
		return nil, true, src, nil
	}
	if cnt > uint32(s.maxEntries) {
		return nil, false, nil, fmt.Errorf("hybrid: vertex %d buffer of %d entries exceeds budget: %w", v, cnt, codec.ErrUnknownType)
	}
	if len(src) < 16*int(cnt) {
		return nil, false, nil, fmt.Errorf("hybrid: vertex %d buffer truncated: %w", v, codec.ErrTruncated)
	}
	return src[:16*cnt], false, src[16*cnt:], nil
}

func init() {
	codec.Register(codec.TagHybrid, func(params []byte, state *codec.StateReader) (graphsketch.Sketch, error) {
		pr := codec.ReadParams(params)
		budget := pr.Int("budget")
		pr.Check(budget >= 2, "budget", budget) // words: one entry takes two
		inner, err := sketch.OpenInner(pr, state)
		if err != nil {
			return nil, err
		}
		s, err := New(inner, budget)
		if err != nil {
			return nil, err
		}
		return s, sketch.Shares{Sharer: s}.Add(state)
	})
}
