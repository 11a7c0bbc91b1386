package vertexconn

import (
	"fmt"
	"io"
	"math/bits"

	"graphsketch"
	"graphsketch/internal/codec"
	"graphsketch/internal/sketch"
)

// WireConfig returns the fully-defaulted per-subgraph spanning configuration
// as the wire format sees it; see sketch.SpanningSketch.WireConfig.
func (s *Sketch) WireConfig() sketch.SpanningConfig { return s.sketches[0].WireConfig() }

func (s *Sketch) wireParams() []byte {
	b := codec.AppendUint64s(nil,
		uint64(s.p.N), uint64(s.p.R), uint64(s.p.K), uint64(s.p.Subgraphs))
	b = sketch.AppendWireConfig(b, s.WireConfig())
	return codec.AppendUint64s(b, s.p.Seed)
}

// Fingerprint returns the sketch's wire identity (codec.Fingerprint over the
// canonical params, seed included).
func (s *Sketch) Fingerprint() uint64 {
	return codec.Fingerprint(codec.TagVertexConn, s.wireParams())
}

// WriteTo writes a self-describing checkpoint frame (graphsketch.Checkpointer).
func (s *Sketch) WriteTo(w io.Writer) (int64, error) {
	st := sketch.Shares{Sharer: s}
	return codec.WriteCheckpoint(w, codec.TagVertexConn, s.wireParams(), st.Size(), st.Write)
}

// ReadFrom reads a checkpoint frame and merges its state into the sketch
// (linearly — an exact restore on a fresh sketch). A frame from a
// differently-constructed sketch fails with codec.ErrFingerprint.
func (s *Sketch) ReadFrom(r io.Reader) (int64, error) {
	n, state, err := codec.ReadCheckpoint(r, codec.TagVertexConn, s.Fingerprint())
	if err != nil {
		return n, err
	}
	return n, sketch.Shares{Sharer: s}.Add(state)
}

// VertexShareFrame frames vertex v's share for transport.
func (s *Sketch) VertexShareFrame(v int) []byte {
	return sketch.ShareFrame(s, codec.TagVertexConn, s.Fingerprint(), v)
}

// AddVertexShareFrame verifies and merges one framed vertex share from the
// front of data, returning the remaining bytes.
func (s *Sketch) AddVertexShareFrame(data []byte) ([]byte, error) {
	return sketch.AddShareFrame(s, codec.TagVertexConn, s.Fingerprint(), data)
}

// wireParams encodes the estimator's identity: n, r (defaulted), kmax, base
// seed, then the per-scale subgraph counts (SubgraphsAt is a function and
// cannot travel; its sampled values can).
func (e *Estimator) wireParams() []byte {
	p0 := e.scales[0].Params()
	b := codec.AppendUint64s(nil,
		uint64(p0.N), uint64(p0.R), uint64(e.kmax), e.seed, uint64(len(e.scales)))
	for _, s := range e.scales {
		b = codec.AppendUint64s(b, uint64(s.Params().Subgraphs))
	}
	return b
}

// Fingerprint returns the estimator's wire identity.
func (e *Estimator) Fingerprint() uint64 {
	return codec.Fingerprint(codec.TagEstimator, e.wireParams())
}

// WriteTo writes a self-describing checkpoint frame (graphsketch.Checkpointer).
func (e *Estimator) WriteTo(w io.Writer) (int64, error) {
	st := e.state()
	return codec.WriteCheckpoint(w, codec.TagEstimator, e.wireParams(), st.Size(), st.Write)
}

// ReadFrom reads a checkpoint frame and merges its state into the estimator
// (linearly — an exact restore on a fresh estimator). A frame from a
// differently-constructed estimator fails with codec.ErrFingerprint.
func (e *Estimator) ReadFrom(r io.Reader) (int64, error) {
	n, state, err := codec.ReadCheckpoint(r, codec.TagEstimator, e.Fingerprint())
	if err != nil {
		return n, err
	}
	return n, e.state().Add(state)
}

func init() {
	codec.Register(codec.TagVertexConn, func(params, state []byte) (graphsketch.Sketch, error) {
		vs, rest, err := codec.ReadUint64s(params, 5+sketch.WireConfigWords)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("vertexconn: params carry %d trailing bytes: %w", len(rest), codec.ErrUnknownType)
		}
		fields, err := codec.IntFields(vs, "n", "r", "k", "subgraphs")
		if err != nil {
			return nil, err
		}
		cfg, err := sketch.ReadWireConfig(vs[4:9])
		if err != nil {
			return nil, err
		}
		s, err := New(Params{
			N: fields[0], R: fields[1], K: fields[2], Subgraphs: fields[3],
			Spanning: cfg, Seed: vs[9],
		})
		if err != nil {
			return nil, err
		}
		return s, sketch.Shares{Sharer: s}.Add(state)
	})
	codec.Register(codec.TagEstimator, func(params, state []byte) (graphsketch.Sketch, error) {
		head, rest, err := codec.ReadUint64s(params, 5)
		if err != nil {
			return nil, err
		}
		n, err := codec.IntField(head[0], "n")
		if err != nil {
			return nil, err
		}
		r, err := codec.IntField(head[1], "r")
		if err != nil {
			return nil, err
		}
		kmax, err := codec.IntField(head[2], "kmax")
		if err != nil {
			return nil, err
		}
		numScales, err := codec.IntField(head[4], "scales")
		if err != nil {
			return nil, err
		}
		// Scales are the powers of two up to and including the first ≥ KMax.
		expect := 0
		for k := 1; ; k *= 2 {
			expect++
			if k >= kmax {
				break
			}
		}
		if numScales != expect {
			return nil, fmt.Errorf("vertexconn: %d scales for kmax %d (want %d): %w",
				numScales, kmax, expect, codec.ErrUnknownType)
		}
		raw, rest, err := codec.ReadUint64s(rest, numScales)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("vertexconn: estimator params carry %d trailing bytes: %w", len(rest), codec.ErrUnknownType)
		}
		counts := make([]int, numScales)
		for i := range counts {
			if counts[i], err = codec.IntField(raw[i], "subgraphs"); err != nil {
				return nil, err
			}
		}
		e, err := NewEstimator(EstimatorParams{
			N: n, R: r, KMax: kmax, Seed: head[3],
			// Scale k = 2^i sits at index i.
			SubgraphsAt: func(k int) int { return counts[bits.Len(uint(k))-1] },
		})
		if err != nil {
			return nil, err
		}
		return e, e.state().Add(state)
	})
}

var (
	_ graphsketch.Checkpointer = (*Sketch)(nil)
	_ graphsketch.Checkpointer = (*Estimator)(nil)
)
