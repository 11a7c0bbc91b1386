package reconstruct

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
	return codec.Fingerprint(codec.TagReconstr, s.wireParams())
}

// WriteTo writes a self-describing checkpoint frame (graphsketch.Checkpointer).
// The state is the skeleton's: its n vertex shares in order.
func (s *Sketch) WriteTo(w io.Writer) (int64, error) {
	return sketch.Shares{Sharer: s.skeleton}.WriteCheckpoint(w, codec.TagReconstr, s.wireParams())
}

// ReadFrom reads a checkpoint frame and merges its state into the sketch
// (linearly — an exact restore on a fresh sketch). A frame from a
// differently-constructed sketch fails with codec.ErrFingerprint.
func (s *Sketch) ReadFrom(r io.Reader) (int64, error) {
	return codec.ReadCheckpoint(r, codec.TagReconstr, s.Fingerprint(), sketch.Shares{Sharer: s.skeleton}.Add)
}

// VertexShareFrame frames vertex v's share of the underlying skeleton stack
// (the per-player message in the simultaneous communication model).
func (s *Sketch) VertexShareFrame(v int) []byte {
	return sketch.ShareFrame(s.skeleton, codec.TagReconstr, s.Fingerprint(), v)
}

// AddVertexShareFrame verifies and merges one framed vertex share from the
// front of data, returning the remaining bytes.
func (s *Sketch) AddVertexShareFrame(data []byte) ([]byte, error) {
	return sketch.AddShareFrame(s.skeleton, codec.TagReconstr, s.Fingerprint(), data)
}

// Fingerprint returns the Becker sketch's wire identity: n, d, the recovery
// budget, and the seed. Becker shares carry TagBecker frames; the sketch has
// no checkpoint opener (it is the shares-only baseline protocol).
func (b *BeckerSketch) Fingerprint() uint64 {
	params := codec.AppendUint64s(nil,
		uint64(b.n), uint64(b.d), uint64(b.budget), b.seed)
	return codec.Fingerprint(codec.TagBecker, params)
}

// VertexShareFrame frames row v — player P_v's message — for transport.
func (b *BeckerSketch) VertexShareFrame(v int) []byte {
	return sketch.ShareFrame(b, codec.TagBecker, b.Fingerprint(), v)
}

// AddVertexShareFrame verifies and merges one framed row share from the
// front of data, returning the remaining bytes.
func (b *BeckerSketch) AddVertexShareFrame(data []byte) ([]byte, error) {
	return sketch.AddShareFrame(b, codec.TagBecker, b.Fingerprint(), data)
}

func init() {
	codec.Register(codec.TagReconstr, func(params []byte, state *codec.StateReader) (graphsketch.Sketch, error) {
		pr := codec.ReadParams(params)
		p := Params{N: pr.Int("n"), R: pr.Int("r"), K: pr.Int("k"), Spanning: sketch.ReadWireConfig(pr), Seed: pr.Uint64()}
		if err := sketch.Fit(pr, state, p.Spanning, p.N, p.K+1, p.N*(p.K+1)); err != nil {
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
