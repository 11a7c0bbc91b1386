package edgeconn

import (
	"io"

	"graphsketch"
	"graphsketch/internal/codec"
	"graphsketch/internal/sketch"
)

// WireConfig returns the fully-defaulted per-layer spanning configuration as
// the wire format sees it; see sketch.SpanningSketch.WireConfig.
func (s *Sketch) WireConfig() sketch.SpanningConfig { return s.skeleton.WireConfig() }

func (s *Sketch) wireParams() []byte {
	b := codec.AppendUint64s(nil, uint64(s.p.N), uint64(s.p.R), uint64(s.p.K))
	b = sketch.AppendWireConfig(b, s.WireConfig())
	return codec.AppendUint64s(b, s.p.Seed)
}

// Fingerprint returns the sketch's wire identity (codec.Fingerprint over the
// canonical params, seed included).
func (s *Sketch) Fingerprint() uint64 {
	return codec.Fingerprint(codec.TagEdgeConn, s.wireParams())
}

// WriteTo writes a self-describing checkpoint frame (graphsketch.Checkpointer).
// The state is the skeleton's: its n vertex shares in order.
func (s *Sketch) WriteTo(w io.Writer) (int64, error) {
	return sketch.Shares{Sharer: s.skeleton}.WriteCheckpoint(w, codec.TagEdgeConn, s.wireParams())
}

// ReadFrom reads a checkpoint frame and merges its state into the sketch
// (linearly — an exact restore on a fresh sketch). A frame from a
// differently-constructed sketch fails with codec.ErrFingerprint.
func (s *Sketch) ReadFrom(r io.Reader) (int64, error) {
	return codec.ReadCheckpoint(r, codec.TagEdgeConn, s.Fingerprint(), sketch.Shares{Sharer: s.skeleton}.Add)
}

// VertexShareFrame frames vertex v's share — its skeleton share — for
// transport in the simultaneous communication model.
func (s *Sketch) VertexShareFrame(v int) []byte {
	return sketch.ShareFrame(s.skeleton, codec.TagEdgeConn, s.Fingerprint(), v)
}

// AddVertexShareFrame verifies and merges one framed vertex share from the
// front of data, returning the remaining bytes.
func (s *Sketch) AddVertexShareFrame(data []byte) ([]byte, error) {
	return sketch.AddShareFrame(s.skeleton, codec.TagEdgeConn, s.Fingerprint(), data)
}

func init() {
	codec.Register(codec.TagEdgeConn, func(params []byte, state *codec.StateReader) (graphsketch.Sketch, error) {
		pr := codec.ReadParams(params)
		p := Params{N: pr.Int("n"), R: pr.Int("r"), K: pr.Int("k"), Spanning: sketch.ReadWireConfig(pr), Seed: pr.Uint64()}
		if err := sketch.Fit(pr, state, p.Spanning, p.N, p.K, p.N*p.K); err != nil {
			return nil, err
		}
		s, err := New(p)
		if err != nil {
			return nil, err
		}
		return s, sketch.Shares{Sharer: s.skeleton}.Add(state)
	})
}

var _ graphsketch.Checkpointer = (*Sketch)(nil)
