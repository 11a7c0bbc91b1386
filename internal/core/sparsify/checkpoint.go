package sparsify

import (
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
	return sketch.Shares{Sharer: s}.WriteCheckpoint(w, codec.TagSparsify, s.wireParams())
}

// ReadFrom reads a checkpoint frame and merges its state into the sketch
// (linearly — an exact restore on a fresh sketch). A frame from a
// differently-constructed sketch fails with codec.ErrFingerprint.
func (s *Sketch) ReadFrom(r io.Reader) (int64, error) {
	return codec.ReadCheckpoint(r, codec.TagSparsify, s.Fingerprint(), sketch.Shares{Sharer: s}.Add)
}

// VertexShareFrame frames vertex v's share across all levels for transport.
func (s *Sketch) VertexShareFrame(v int) []byte {
	return sketch.ShareFrame(s, codec.TagSparsify, s.Fingerprint(), v)
}

// AddVertexShareFrame verifies and merges one framed vertex share from the
// front of data, returning the remaining bytes.
func (s *Sketch) AddVertexShareFrame(data []byte) ([]byte, error) {
	return sketch.AddShareFrame(s, codec.TagSparsify, s.Fingerprint(), data)
}

func init() {
	codec.Register(codec.TagSparsify, func(params []byte, state *codec.StateReader) (graphsketch.Sketch, error) {
		pr := codec.ReadParams(params)
		p := Params{N: pr.Int("n"), R: pr.Int("r"), K: pr.Int("k"), Levels: pr.Int("levels"),
			Spanning: sketch.ReadWireConfig(pr), Seed: pr.Uint64()}
		// Levels 0..Levels, each a (K+1)-layer skeleton.
		layers := (p.K + 1) * (p.Levels + 1)
		if err := sketch.Fit(pr, state, p.Spanning, p.N, layers, p.N*layers); err != nil {
			return nil, err
		}
		s, err := New(p)
		if err != nil {
			return nil, err
		}
		return s, sketch.Shares{Sharer: s}.Add(state)
	})
}

var _ graphsketch.Checkpointer = (*Sketch)(nil)
