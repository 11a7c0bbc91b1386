package hybrid

import (
	"io"

	"graphsketch"
	"graphsketch/internal/codec"
)

// Wire format. A hybrid checkpoint frame's params are two words — the
// exact-buffer budget and the inner sketch's own wire fingerprint — so the
// hybrid's identity commits to the inner's full construction (seed, domain,
// shape) without re-encoding it. The state (writeState) carries everything
// params cannot reconstruct: the inner sketch's complete embedded
// checkpoint frame, the spill bitmap, and the per-vertex exact buffers.
// codec.Open on the embedded frame rebuilds the inner through its own
// registered opener, and the recorded fingerprint pins it: a state whose
// embedded frame disagrees with the params is rejected typed.

func (s *Sketch) wireParams() []byte {
	return codec.AppendUint64s(nil, uint64(s.budget), s.innerFingerprint())
}

func (s *Sketch) innerFingerprint() uint64 {
	if s.inner != nil {
		return s.inner.Fingerprint()
	}
	return s.wantInnerFP
}

// Fingerprint returns the sketch's wire identity (codec.Fingerprint over
// budget + inner fingerprint). Frames are exchangeable iff fingerprints
// agree, which transitively requires identically constructed inners.
func (s *Sketch) Fingerprint() uint64 {
	return codec.Fingerprint(codec.TagHybrid, s.wireParams())
}

// WriteTo writes a self-describing checkpoint frame (graphsketch.Checkpointer).
func (s *Sketch) WriteTo(w io.Writer) (int64, error) {
	return codec.WriteCheckpoint(w, codec.TagHybrid, s.wireParams(), s.stateSize(), s.writeState)
}

// ReadFrom reads a checkpoint frame and merges its state into the sketch
// (linearly — on a fresh sketch this is an exact restore). The frame must
// carry this sketch's fingerprint; a frame from a differently-constructed
// hybrid (different budget or inner) fails with codec.ErrFingerprint.
func (s *Sketch) ReadFrom(r io.Reader) (int64, error) {
	return codec.ReadCheckpoint(r, codec.TagHybrid, s.Fingerprint(), s.addState)
}

func init() {
	codec.Register(codec.TagHybrid, func(params, state []byte) (graphsketch.Sketch, error) {
		pr := codec.ReadParams(params)
		budget, innerFP := pr.Int("budget"), pr.Uint64()
		pr.Check(budget >= 2, "budget", budget) // words: one entry takes two
		if err := pr.Done(); err != nil {
			return nil, err
		}
		// The shell has no inner yet — params alone cannot build one; the
		// state's embedded frame supplies it, through its own opener.
		s := &Sketch{budget: budget, maxEntries: budget / 2, wantInnerFP: innerFP}
		return s, s.addState(state)
	})
}
