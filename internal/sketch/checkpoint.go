package sketch

import (
	"fmt"
	"io"

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
	st := Shares{s}
	return codec.WriteCheckpoint(w, codec.TagSpanning, s.wireParams(), st.Size(), st.Write)
}

// CheckpointSize returns the length of the frame WriteTo writes.
func (s *SpanningSketch) CheckpointSize() int {
	return codec.CheckpointSize(s.wireParams(), Shares{s}.Size())
}

// ReadFrom reads a checkpoint frame and merges its state into the sketch
// (linearly — on a fresh sketch this is an exact restore). The frame must
// carry this sketch's fingerprint; a frame from a differently-constructed
// sketch fails with codec.ErrFingerprint.
func (s *SpanningSketch) ReadFrom(r io.Reader) (int64, error) {
	n, state, err := codec.ReadCheckpoint(r, codec.TagSpanning, s.Fingerprint())
	if err != nil {
		return n, err
	}
	return n, Shares{s}.Add(state)
}

// VertexShareFrame frames vertex v's share for transport: the share
// (AppendShare) is built in place as the interior of a codec share frame
// carrying the sketch's fingerprint.
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
	st := Shares{s}
	return codec.WriteCheckpoint(w, codec.TagSkeleton, s.wireParams(), st.Size(), st.Write)
}

// CheckpointSize returns the length of the frame WriteTo writes.
func (s *SkeletonSketch) CheckpointSize() int {
	return codec.CheckpointSize(s.wireParams(), Shares{s}.Size())
}

// ReadFrom reads a checkpoint frame and merges its state into the sketch;
// see SpanningSketch.ReadFrom for the contract.
func (s *SkeletonSketch) ReadFrom(r io.Reader) (int64, error) {
	n, state, err := codec.ReadCheckpoint(r, codec.TagSkeleton, s.Fingerprint())
	if err != nil {
		return n, err
	}
	return n, Shares{s}.Add(state)
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
// (tag, fp): a codec share frame whose interior AppendShare builds in
// place.
func ShareFrame(s Sharer, tag codec.Tag, fp uint64, v int) []byte {
	return codec.AppendShareFrame(nil, tag, fp, v, s.ShareSize(v),
		func(b []byte) []byte { return s.AppendShare(b, v) })
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

// ReadWireConfig decodes the five words written by AppendWireConfig,
// validating each as a sane dimension.
func ReadWireConfig(vs []uint64) (SpanningConfig, error) {
	f, err := codec.IntFields(vs, "rounds", "sampler.s", "sampler.rows", "sampler.buckets_per_s", "sampler.max_levels")
	if err != nil {
		return SpanningConfig{}, err
	}
	return SpanningConfig{Rounds: f[0], Sampler: l0.Config{S: f[1], Rows: f[2], BucketsPerS: f[3], MaxLevels: f[4]}}, nil
}

// WireConfigWords is the number of uint64 words AppendWireConfig emits.
const WireConfigWords = 5

// paramWords decodes a params encoding of exactly n words.
func paramWords(tag codec.Tag, params []byte, n int) ([]uint64, error) {
	vs, rest, err := codec.ReadUint64s(params, n)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("sketch: %v params carry %d trailing bytes: %w", tag, len(rest), codec.ErrUnknownType)
	}
	return vs, err
}

func init() {
	codec.Register(codec.TagSpanning, func(params, state []byte) (graphsketch.Sketch, error) {
		vs, err := paramWords(codec.TagSpanning, params, 8)
		if err != nil {
			return nil, err
		}
		f, err := codec.IntFields(vs, "n", "r")
		if err != nil {
			return nil, err
		}
		cfg, err := ReadWireConfig(vs[2:7])
		if err != nil {
			return nil, err
		}
		s, err := NewSpanningSketch(SpanningParams{N: f[0], R: f[1], Rounds: cfg.Rounds, Sampler: cfg.Sampler, Seed: vs[7]})
		if err != nil {
			return nil, err
		}
		return s, Shares{s}.Add(state)
	})
	codec.Register(codec.TagSkeleton, func(params, state []byte) (graphsketch.Sketch, error) {
		vs, err := paramWords(codec.TagSkeleton, params, 9)
		if err != nil {
			return nil, err
		}
		f, err := codec.IntFields(vs, "n", "r", "k")
		if err != nil {
			return nil, err
		}
		cfg, err := ReadWireConfig(vs[3:8])
		if err != nil {
			return nil, err
		}
		s, err := NewSkeletonSketch(SkeletonParams{N: f[0], R: f[1], K: f[2], Spanning: cfg, Seed: vs[8]})
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
