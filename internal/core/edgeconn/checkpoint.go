package edgeconn

import (
	"fmt"
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
	st := sketch.Shares{Sharer: s.skeleton}
	return codec.WriteCheckpoint(w, codec.TagEdgeConn, s.wireParams(), st.Size(), st.Write)
}

// ReadFrom reads a checkpoint frame and merges its state into the sketch
// (linearly — an exact restore on a fresh sketch). A frame from a
// differently-constructed sketch fails with codec.ErrFingerprint.
func (s *Sketch) ReadFrom(r io.Reader) (int64, error) {
	n, state, err := codec.ReadCheckpoint(r, codec.TagEdgeConn, s.Fingerprint())
	if err != nil {
		return n, err
	}
	return n, s.addState(state)
}

// addState merges a state into the skeleton, dropping the decoded cache.
func (s *Sketch) addState(state []byte) error {
	s.decoded = nil
	return sketch.Shares{Sharer: s.skeleton}.Add(state)
}

// VertexShareFrame frames vertex v's share — its skeleton share — for
// transport in the simultaneous communication model.
func (s *Sketch) VertexShareFrame(v int) []byte {
	return sketch.ShareFrame(s.skeleton, codec.TagEdgeConn, s.Fingerprint(), v)
}

// AddVertexShareFrame verifies and merges one framed vertex share from the
// front of data, returning the remaining bytes.
func (s *Sketch) AddVertexShareFrame(data []byte) ([]byte, error) {
	s.decoded = nil
	return sketch.AddShareFrame(s.skeleton, codec.TagEdgeConn, s.Fingerprint(), data)
}

func init() {
	codec.Register(codec.TagEdgeConn, func(params, state []byte) (graphsketch.Sketch, error) {
		vs, rest, err := codec.ReadUint64s(params, 4+sketch.WireConfigWords)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("edgeconn: params carry %d trailing bytes: %w", len(rest), codec.ErrUnknownType)
		}
		n, err := codec.IntField(vs[0], "n")
		if err != nil {
			return nil, err
		}
		r, err := codec.IntField(vs[1], "r")
		if err != nil {
			return nil, err
		}
		k, err := codec.IntField(vs[2], "k")
		if err != nil {
			return nil, err
		}
		cfg, err := sketch.ReadWireConfig(vs[3:8])
		if err != nil {
			return nil, err
		}
		s, err := New(Params{N: n, R: r, K: k, Spanning: cfg, Seed: vs[8]})
		if err != nil {
			return nil, err
		}
		return s, s.addState(state)
	})
}

var _ graphsketch.Checkpointer = (*Sketch)(nil)
