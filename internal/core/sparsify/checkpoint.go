package sparsify

import (
	"fmt"
	"io"

	"graphsketch"
	"graphsketch/internal/codec"
	"graphsketch/internal/sketch"
)

// WireConfig returns the fully-defaulted per-level spanning configuration as
// the wire format sees it; see sketch.SpanningSketch.WireConfig.
func (s *Sketch) WireConfig() sketch.SpanningConfig { return s.levels[0].WireConfig() }

func (s *Sketch) wireParams() []byte {
	b := codec.AppendUint64s(nil,
		uint64(s.p.N), uint64(s.p.R), uint64(s.p.K), uint64(s.p.Levels))
	b = sketch.AppendWireConfig(b, s.WireConfig())
	return codec.AppendUint64s(b, s.p.Seed)
}

// Fingerprint returns the sketch's wire identity (codec.Fingerprint over the
// canonical params, seed included).
func (s *Sketch) Fingerprint() uint64 {
	return codec.Fingerprint(codec.TagSparsify, s.wireParams())
}

// WriteTo writes a self-describing checkpoint frame (graphsketch.Checkpointer).
func (s *Sketch) WriteTo(w io.Writer) (int64, error) {
	st := s.state()
	return codec.WriteCheckpoint(w, codec.TagSparsify, s.wireParams(), st.Size(), st.Write)
}

// ReadFrom reads a checkpoint frame and merges its state into the sketch
// (linearly — an exact restore on a fresh sketch). A frame from a
// differently-constructed sketch fails with codec.ErrFingerprint.
func (s *Sketch) ReadFrom(r io.Reader) (int64, error) {
	n, state, err := codec.ReadCheckpoint(r, codec.TagSparsify, s.Fingerprint())
	if err != nil {
		return n, err
	}
	return n, s.state().Add(state)
}

// VertexShareFrame frames vertex v's share across all levels for transport.
func (s *Sketch) VertexShareFrame(v int) []byte {
	return sketch.ShareFrame(levelShares(s.levels), codec.TagSparsify, s.Fingerprint(), v)
}

// AddVertexShareFrame verifies and merges one framed vertex share from the
// front of data, returning the remaining bytes.
func (s *Sketch) AddVertexShareFrame(data []byte) ([]byte, error) {
	return sketch.AddShareFrame(levelShares(s.levels), codec.TagSparsify, s.Fingerprint(), data)
}

func init() {
	codec.Register(codec.TagSparsify, func(params, state []byte) (graphsketch.Sketch, error) {
		vs, rest, err := codec.ReadUint64s(params, 5+sketch.WireConfigWords)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("sparsify: params carry %d trailing bytes: %w", len(rest), codec.ErrUnknownType)
		}
		fields := [4]int{}
		for i, name := range []string{"n", "r", "k", "levels"} {
			if fields[i], err = codec.IntField(vs[i], name); err != nil {
				return nil, err
			}
		}
		cfg, err := sketch.ReadWireConfig(vs[4:9])
		if err != nil {
			return nil, err
		}
		s, err := New(Params{
			N: fields[0], R: fields[1], K: fields[2], Levels: fields[3],
			Spanning: cfg, Seed: vs[9],
		})
		if err != nil {
			return nil, err
		}
		return s, s.state().Add(state)
	})
}

var _ graphsketch.Checkpointer = (*Sketch)(nil)
