package sketch

import (
	"fmt"
	"io"
	"math"

	"graphsketch"
	"graphsketch/internal/codec"
	"graphsketch/internal/l0"
)

// This file wires the spanning and skeleton sketches into the versioned wire
// format (internal/codec): canonical params encodings, identity
// fingerprints, WriteTo/ReadFrom checkpointing, framed vertex shares, and
// the openers codec.Open uses to reconstruct a sketch from a frame alone.

// WireConfig returns the fully-defaulted configuration as the wire format
// sees it: Rounds resolved against n and the sampler config resolved against
// the domain size. Two sketches that behave identically — regardless of
// which optional fields their constructors spelled out — have equal
// WireConfigs, which is what makes fingerprints canonical.
func (s *SpanningSketch) WireConfig() SpanningConfig { return s.cfg }

func (s *SpanningSketch) wireParams() []byte {
	b := codec.AppendUint64s(nil, uint64(s.dom.N()), uint64(s.dom.R()))
	b = AppendWireConfig(b, s.WireConfig())
	return codec.AppendUint64s(b, s.seed)
}

// Fingerprint returns the sketch's wire identity (codec.Fingerprint over the
// canonical params, seed included). Frames are exchangeable iff fingerprints
// agree.
func (s *SpanningSketch) Fingerprint() uint64 {
	return codec.Fingerprint(codec.TagSpanning, s.wireParams())
}

// WriteTo writes a self-describing checkpoint frame (graphsketch.Checkpointer).
func (s *SpanningSketch) WriteTo(w io.Writer) (int64, error) {
	return Shares{s}.WriteCheckpoint(w, codec.TagSpanning, s.wireParams())
}

// ReadFrom reads a checkpoint frame and merges its state into the sketch
// (linearly — on a fresh sketch this is an exact restore). The frame must
// carry this sketch's fingerprint; a frame from a differently-constructed
// sketch fails with codec.ErrFingerprint.
func (s *SpanningSketch) ReadFrom(r io.Reader) (int64, error) {
	return codec.ReadCheckpoint(r, codec.TagSpanning, s.Fingerprint(), Shares{s}.Add)
}

// VertexShareFrame frames vertex v's share for transport: the interior of
// a codec share frame carrying the sketch's fingerprint, built in place.
func (s *SpanningSketch) VertexShareFrame(v int) []byte {
	return ShareFrame(s, codec.TagSpanning, s.Fingerprint(), v)
}

// AddVertexShareFrame verifies and merges one framed vertex share from the
// front of data, returning the remaining bytes.
func (s *SpanningSketch) AddVertexShareFrame(data []byte) ([]byte, error) {
	return AddShareFrame(s, codec.TagSpanning, s.Fingerprint(), data)
}

// WireConfig returns the per-layer spanning configuration as the wire format
// sees it (fully defaulted); see SpanningSketch.WireConfig.
func (s *SkeletonSketch) WireConfig() SpanningConfig { return s.layers[0].WireConfig() }

func (s *SkeletonSketch) wireParams() []byte {
	b := codec.AppendUint64s(nil, uint64(s.dom.N()), uint64(s.dom.R()), uint64(s.k))
	b = AppendWireConfig(b, s.WireConfig())
	return codec.AppendUint64s(b, s.seed)
}

// Fingerprint returns the sketch's wire identity.
func (s *SkeletonSketch) Fingerprint() uint64 {
	return codec.Fingerprint(codec.TagSkeleton, s.wireParams())
}

// WriteTo writes a self-describing checkpoint frame (graphsketch.Checkpointer).
func (s *SkeletonSketch) WriteTo(w io.Writer) (int64, error) {
	return Shares{s}.WriteCheckpoint(w, codec.TagSkeleton, s.wireParams())
}

// ReadFrom reads a checkpoint frame and merges its state into the sketch;
// see SpanningSketch.ReadFrom for the contract.
func (s *SkeletonSketch) ReadFrom(r io.Reader) (int64, error) {
	return codec.ReadCheckpoint(r, codec.TagSkeleton, s.Fingerprint(), Shares{s}.Add)
}

// VertexShareFrame frames vertex v's share across all layers.
func (s *SkeletonSketch) VertexShareFrame(v int) []byte {
	return ShareFrame(s, codec.TagSkeleton, s.Fingerprint(), v)
}

// AddVertexShareFrame verifies and merges one framed skeleton share from the
// front of data, returning the remaining bytes.
func (s *SkeletonSketch) AddVertexShareFrame(data []byte) ([]byte, error) {
	return AddShareFrame(s, codec.TagSkeleton, s.Fingerprint(), data)
}

// ShareFrame frames vertex v's share of s for transport under the identity
// (tag, fp): a codec share frame whose interior is built in place.
func ShareFrame(s Sharer, tag codec.Tag, fp uint64, v int) []byte {
	ps := Parts(s.ShareParts(nil, v))
	return codec.AppendShareFrame(nil, tag, fp, v, ps.Size(), ps.Append)
}

// AddShareFrame verifies one share frame from the front of data against
// the identity (tag, fp) and s's vertex range, merges the share into s,
// and returns the remaining bytes. A frame the codec rejects — corrupt,
// from another identity, or naming a vertex outside [0, n) — or whose
// share is malformed leaves s untouched.
func AddShareFrame(s Sharer, tag codec.Tag, fp uint64, data []byte) ([]byte, error) {
	v, interior, rest, err := codec.DecodeShareFrame(data, tag, fp, s.NumVertices())
	if err != nil {
		return nil, err
	}
	return rest, AddShare(s, v, interior)
}

// AppendWireConfig appends a SpanningConfig's five wire words (rounds plus
// the four sampler-shape fields). Callers pass a WireConfig (fully
// defaulted) so the encoding is canonical. The core packages embed this in
// their own params encodings.
func AppendWireConfig(dst []byte, cfg SpanningConfig) []byte {
	return codec.AppendUint64s(dst,
		uint64(cfg.Rounds),
		uint64(cfg.Sampler.S), uint64(cfg.Sampler.Rows),
		uint64(cfg.Sampler.BucketsPerS), uint64(cfg.Sampler.MaxLevels))
}

// ReadWireConfig reads the five words AppendWireConfig writes, each a sane
// dimension, and rejects a sampler shape outside the l0 caps.
func ReadWireConfig(p *codec.ParamReader) SpanningConfig {
	cfg := SpanningConfig{Rounds: p.Int("rounds"), Sampler: l0.Config{
		S: p.Int("sampler.s"), Rows: p.Int("sampler.rows"),
		BucketsPerS: p.Int("sampler.buckets_per_s"), MaxLevels: p.Int("sampler.max_levels"),
	}}
	p.Check(cfg.Sampler.WithinCaps(), "sampler", cfg.Sampler)
	return cfg
}

// Fit returns pr's error (codec.ParamReader.Done), or codec.ErrTruncated
// unless state backs the sketches spanning sketches over n vertices with
// config cfg pr declared, carrying samplers samplers a round; openers call
// it before building anything. The state must hold the empty state (an
// absent sampler is one wire byte), and building — n samplers and a
// shared-randomness entry per round of a sketch, carried or not — may take
// allocPerByte bytes a state byte beyond allocSlack: profile shapes take
// under 1 KiB, vertexconn about 32·K + 2 KiB·K/n. Sketches are checked
// first, so a samplers product that overflowed is never read.
//
// The bound holds on bytes actually delivered, not on the length the frame
// declares: Fit has state buffer the bytes it needs, and a stream that
// ends first fails ErrTruncated. So a declared length that lies, from a
// reader that cannot report its length, still cannot make an opener
// allocate much.
func Fit(pr *codec.ParamReader, state *codec.StateReader, cfg SpanningConfig, n, sketches, samplers int) error {
	if err := pr.Done(); err != nil {
		return err
	}
	rounds := float64(cfg.withDefaults(n).Rounds)
	build := math.Ceil((rounds*float64(sketches)*float64(32*n+cfg.Sampler.SharedBytes()) - allocSlack) / allocPerByte)
	if build > float64(state.Len()) {
		return fmt.Errorf("sketch: params declare more than the %d-byte state backs: %w", state.Len(), codec.ErrTruncated)
	}
	empty := rounds * float64(samplers)
	if empty > float64(state.Len()) {
		return fmt.Errorf("sketch: params declare an empty state longer than the %d-byte state: %w", state.Len(), codec.ErrTruncated)
	}
	_, err := state.Next(int(max(build, empty)))
	return err
}

const (
	allocPerByte = 4 << 10
	allocSlack   = 64 << 20
)

// AppendInner appends in's identity to a wrapper's params (the hybrid,
// internal/hybrid, wraps a spanning sketch): the spanning tag word, then
// in's own params words. A wrapper rebuilds the inner empty from them
// (OpenInner), so its state holds only shares.
func AppendInner(dst []byte, in *SpanningSketch) []byte {
	return append(codec.AppendUint64s(dst, uint64(codec.TagSpanning)), in.wireParams()...)
}

// OpenInner reads the identity AppendInner wrote from pr, which it must
// end, and builds that spanning sketch empty once Fit finds the wrapper's
// state backs it. An identity whose tag word names any other sketch fails
// codec.ErrUnknownType.
func OpenInner(pr *codec.ParamReader, state *codec.StateReader) (*SpanningSketch, error) {
	tag := pr.Uint64()
	pr.Check(tag == uint64(codec.TagSpanning), "inner tag", tag)
	return openSpanning(pr, state)
}

// openSpanning builds the empty spanning sketch whose params pr reads.
func openSpanning(pr *codec.ParamReader, state *codec.StateReader) (*SpanningSketch, error) {
	n, r, cfg, seed := pr.Int("n"), pr.Int("r"), ReadWireConfig(pr), pr.Uint64()
	if err := Fit(pr, state, cfg, n, 1, n); err != nil {
		return nil, err
	}
	return NewSpanningSketch(SpanningParams{N: n, R: r, Rounds: cfg.Rounds, Sampler: cfg.Sampler, Seed: seed})
}

func init() {
	codec.Register(codec.TagSpanning, func(params []byte, state *codec.StateReader) (graphsketch.Sketch, error) {
		s, err := openSpanning(codec.ReadParams(params), state)
		if err != nil {
			return nil, err
		}
		return s, Shares{s}.Add(state)
	})
	codec.Register(codec.TagSkeleton, func(params []byte, state *codec.StateReader) (graphsketch.Sketch, error) {
		pr := codec.ReadParams(params)
		p := SkeletonParams{N: pr.Int("n"), R: pr.Int("r"), K: pr.Int("k"), Spanning: ReadWireConfig(pr), Seed: pr.Uint64()}
		if err := Fit(pr, state, p.Spanning, p.N, p.K, p.N*p.K); err != nil {
			return nil, err
		}
		s, err := NewSkeletonSketch(p)
		if err != nil {
			return nil, err
		}
		return s, Shares{s}.Add(state)
	})
}

var (
	_ graphsketch.Checkpointer = (*SpanningSketch)(nil)
	_ graphsketch.Checkpointer = (*SkeletonSketch)(nil)
)
