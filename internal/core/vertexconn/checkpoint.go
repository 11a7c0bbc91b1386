package vertexconn

import (
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
	return sketch.Shares{Sharer: s}.WriteCheckpoint(w, codec.TagVertexConn, s.wireParams())
}

// ReadFrom reads a checkpoint frame and merges its state into the sketch
// (linearly — an exact restore on a fresh sketch). A frame from a
// differently-constructed sketch fails with codec.ErrFingerprint.
func (s *Sketch) ReadFrom(r io.Reader) (int64, error) {
	return codec.ReadCheckpoint(r, codec.TagVertexConn, s.Fingerprint(), sketch.Shares{Sharer: s}.Add)
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
	return sketch.Shares{Sharer: e}.WriteCheckpoint(w, codec.TagEstimator, e.wireParams())
}

// ReadFrom reads a checkpoint frame and merges its state into the estimator
// (linearly — an exact restore on a fresh estimator). A frame from a
// differently-constructed estimator fails with codec.ErrFingerprint.
func (e *Estimator) ReadFrom(r io.Reader) (int64, error) {
	return codec.ReadCheckpoint(r, codec.TagEstimator, e.Fingerprint(), sketch.Shares{Sharer: e}.Add)
}

// scaleParams returns the parameters of the estimator's scale k.
func scaleParams(n, r, k, subgraphs int, seed uint64) Params {
	return Params{N: n, R: r, K: k, Subgraphs: subgraphs, Seed: seed ^ uint64(k)*0x9e37}
}

// fit is sketch.Fit for sketches over one n and config, a subgraph member
// being a sampler a round on the wire. Members are counted once the
// subgraphs fit, and only until they pass what the state holds.
func fit(pr *codec.ParamReader, state *codec.StateReader, ps ...Params) error {
	subgraphs, members := 0, 0
	for _, p := range ps {
		subgraphs += p.Subgraphs
	}
	cfg, n := ps[0].Spanning, ps[0].N
	if err := sketch.Fit(pr, state, cfg, n, subgraphs, 0); err != nil {
		return err
	}
	for _, p := range ps {
		if p.K >= 1 {
			eachMember(p, func(int, int) bool { members++; return members <= state.Len() })
		}
	}
	return sketch.Fit(pr, state, cfg, n, subgraphs, members)
}

func init() {
	codec.Register(codec.TagVertexConn, func(params []byte, state *codec.StateReader) (graphsketch.Sketch, error) {
		pr := codec.ReadParams(params)
		p := Params{N: pr.Int("n"), R: pr.Int("r"), K: pr.Int("k"), Subgraphs: pr.Int("subgraphs"),
			Spanning: sketch.ReadWireConfig(pr), Seed: pr.Uint64()}
		if err := fit(pr, state, p); err != nil {
			return nil, err
		}
		s, err := New(p)
		if err != nil {
			return nil, err
		}
		return s, sketch.Shares{Sharer: s}.Add(state)
	})
	codec.Register(codec.TagEstimator, func(params []byte, state *codec.StateReader) (graphsketch.Sketch, error) {
		pr := codec.ReadParams(params)
		n, r, kmax, seed := pr.Int("n"), pr.Int("r"), pr.Int("kmax"), pr.Uint64()
		// Scales are the powers of two up to and including the first ≥ KMax;
		// scale k = 2^i sits at index i.
		scales := make([]Params, bits.Len(uint(max(kmax, 1)-1))+1)
		numScales := pr.Int("scales")
		pr.Check(numScales == len(scales), "scales", numScales)
		for i := range scales {
			scales[i] = scaleParams(n, r, 1<<i, pr.Int("subgraphs"), seed)
		}
		if err := fit(pr, state, scales...); err != nil {
			return nil, err
		}
		e, err := NewEstimator(EstimatorParams{
			N: n, R: r, KMax: kmax, Seed: seed,
			SubgraphsAt: func(k int) int { return scales[bits.Len(uint(k))-1].Subgraphs },
		})
		if err != nil {
			return nil, err
		}
		return e, sketch.Shares{Sharer: e}.Add(state)
	})
}

var (
	_ graphsketch.Checkpointer = (*Sketch)(nil)
	_ graphsketch.Checkpointer = (*Estimator)(nil)
)
