package commsim

import (
	"bytes"
	"errors"
	"io"
	"math/rand/v2"
	"testing"

	"graphsketch/internal/codec"
	"graphsketch/internal/core/reconstruct"
	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/obs"
	"graphsketch/internal/sketch"
	"graphsketch/internal/testutil/frametest"
	"graphsketch/internal/workload"
)

func TestSpanningProtocolMatchesSingleMachine(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	h := workload.ErdosRenyi(rng, 20, 0.25)
	dom := h.Domain()
	cfg := sketch.SpanningConfig{}
	const seed = 77

	referee := sketch.NewSpanning(seed, dom, cfg)
	res, err := Run(h, func() Protocol { return sketch.NewSpanning(seed, dom, cfg) }, referee)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMessageBytes == 0 {
		t.Fatal("no communication happened")
	}

	// The referee's decode must match a single-machine sketch of h.
	direct := sketch.NewSpanning(seed, dom, cfg)
	if err := direct.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	fRef, err := referee.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	fDir, err := direct.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !fRef.Equal(fDir) {
		t.Fatal("referee decode differs from single-machine decode")
	}
	// And it must be a valid spanning graph.
	dh := graphalg.ComponentsOf(h)
	df := graphalg.ComponentsOf(fRef)
	for u := 0; u < h.N(); u++ {
		for v := u + 1; v < h.N(); v++ {
			if dh.Same(u, v) != df.Same(u, v) {
				t.Fatal("protocol spanning graph has wrong connectivity")
			}
		}
	}
}

func TestSkeletonProtocol(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	h := workload.ErdosRenyi(rng, 12, 0.4)
	dom := h.Domain()
	cfg := sketch.SpanningConfig{}
	const seed = 99

	referee := mustSkeleton(sketch.SkeletonParams{N: dom.N(), R: dom.R(), K: 2, Spanning: cfg, Seed: seed})
	if _, err := Run(h, func() Protocol {
		return mustSkeleton(sketch.SkeletonParams{N: dom.N(), R: dom.R(), K: 2, Spanning: cfg, Seed: seed})
	}, referee); err != nil {
		t.Fatal(err)
	}
	skel, err := referee.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range skel.Edges() {
		if !h.Has(e) {
			t.Fatalf("protocol skeleton fabricated edge %v", e)
		}
	}
}

func TestReconstructProtocolPaperExample(t *testing.T) {
	// Full end-to-end of the paper's referee story: players send
	// O(d polylog n) bits each, the referee reconstructs the
	// 2-cut-degenerate example exactly.
	h := workload.PaperExample()
	dom := h.Domain()
	cfg := sketch.SpanningConfig{}
	const seed = 13

	mk := func() *sketch.SkeletonSketch {
		return mustSkeleton(sketch.SkeletonParams{N: dom.N(), R: dom.R(), K: 2 + 1, Spanning: cfg, Seed: seed})
	}
	referee := mk()
	res, err := Run(h, func() Protocol { return mk() }, referee)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reconstruct.Reconstruct(referee)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(h) {
		t.Fatal("referee failed to reconstruct the paper example")
	}
	t.Logf("max message %d bytes, total %d bytes", res.MaxMessageBytes, res.TotalBytes)
}

// stateOf returns s's checkpoint frame or, for a sketch that writes none
// (reconstruct.BeckerSketch), its n vertex shares back to back.
func stateOf(t *testing.T, s sketch.Sharer, n int) []byte {
	t.Helper()
	if _, ok := s.(io.WriterTo); ok {
		return frametest.Of(t, s)
	}
	var b []byte
	for v := 0; v < n; v++ {
		b = sketch.AppendShare(s, b, v)
	}
	return b
}

// TestFramedSizesIncludeEnvelope checks, for each protocol, that the
// referee ends up with exactly the state of a directly built twin and that
// the run's accounting is the twin's share sizes plus one envelope per
// player.
func TestFramedSizesIncludeEnvelope(t *testing.T) {
	type player interface {
		Protocol
		sketch.Sharer
		UpdateGraph(h *graph.Hypergraph, scale int64) error
	}
	rng := rand.New(rand.NewPCG(5, 6))
	h := workload.ErdosRenyi(rng, 10, 0.3)
	dom := h.Domain()
	cfg := sketch.SpanningConfig{}
	const seed = 21

	for _, tc := range []struct {
		name string
		mk   func() player
	}{
		{"spanning", func() player { return sketch.NewSpanning(seed, dom, cfg) }},
		{"skeleton", func() player {
			return mustSkeleton(sketch.SkeletonParams{N: dom.N(), R: dom.R(), K: 2, Spanning: cfg, Seed: seed})
		}},
		{"becker", func() player { return reconstruct.NewBecker(seed, h.N(), 2, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			referee := tc.mk()
			res, err := Run(h, func() Protocol { return tc.mk() }, referee)
			if err != nil {
				t.Fatal(err)
			}
			direct := tc.mk()
			if err := direct.UpdateGraph(h, 1); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stateOf(t, referee, h.N()), stateOf(t, direct, h.N())) {
				t.Fatal("referee state differs from the directly built twin's")
			}
			// Interior sizes are the paper-faithful raw shares.
			maxShare, total := 0, 0
			for v := 0; v < h.N(); v++ {
				maxShare = max(maxShare, sketch.ShareSize(direct, v))
				total += sketch.ShareSize(direct, v)
			}
			if res.MaxMessageBytes != maxShare {
				t.Fatalf("max message %d, want largest raw share %d", res.MaxMessageBytes, maxShare)
			}
			if res.TotalBytes != total {
				t.Fatalf("interior total %d, want raw share total %d", res.TotalBytes, total)
			}
			// One envelope per player, nothing else: framed − interior must
			// be exactly n·ShareOverhead (and the same per message).
			if got, want := res.EnvelopeBytes(), res.Players*codec.ShareOverhead; got != want {
				t.Fatalf("envelope bytes %d, want %d", got, want)
			}
			if got, want := res.FramedMaxMessageBytes, res.MaxMessageBytes+codec.ShareOverhead; got != want {
				t.Fatalf("framed max %d, want %d", got, want)
			}
		})
	}
}

func TestRefereeRejectsCrossSeedShares(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	rejected := obs.Default().Counter("commsim_shares_rejected_total", "")
	before := rejected.Value()

	rng := rand.New(rand.NewPCG(7, 8))
	h := workload.ErdosRenyi(rng, 10, 0.3)
	dom := h.Domain()
	cfg := sketch.SpanningConfig{}

	// Players run under different public randomness than the referee: every
	// share frame must be refused with the typed fingerprint error (before
	// the framed format this silently merged to garbage), and the rejection
	// must be visible on the commsim_shares_rejected_total counter.
	referee := sketch.NewSpanning(1, dom, cfg)
	_, err := Run(h, func() Protocol { return sketch.NewSpanning(2, dom, cfg) }, referee)
	if !errors.Is(err, codec.ErrFingerprint) {
		t.Fatalf("cross-seed run: got %v, want codec.ErrFingerprint", err)
	}
	if got := rejected.Value() - before; got != 1 {
		t.Fatalf("commsim_shares_rejected_total advanced by %d, want 1", got)
	}

	// A same-seed run on the same registry must not advance the counter.
	referee2 := sketch.NewSpanning(3, dom, cfg)
	if _, err := Run(h, func() Protocol { return sketch.NewSpanning(3, dom, cfg) }, referee2); err != nil {
		t.Fatal(err)
	}
	if got := rejected.Value() - before; got != 1 {
		t.Fatalf("clean run advanced commsim_shares_rejected_total to %d, want 1", got)
	}
}

func TestMessageSizeTracksDegree(t *testing.T) {
	// A star: the hub's message should be the largest.
	n := 16
	h := graph.NewGraph(n)
	for v := 1; v < n; v++ {
		h.AddSimple(0, v)
	}
	dom := h.Domain()
	cfg := sketch.SpanningConfig{}
	const seed = 5

	sizes := make([]int, n)
	for v := 0; v < n; v++ {
		p := sketch.NewSpanning(seed, dom, cfg)
		for _, e := range h.Edges() {
			if e.Contains(v) {
				if err := p.Update(e, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		sizes[v] = sketch.ShareSize(p, v)
	}
	for v := 1; v < n; v++ {
		if sizes[0] < sizes[v] {
			t.Fatalf("hub message (%d) smaller than leaf %d (%d)", sizes[0], v, sizes[v])
		}
	}
}

// mustSkeleton is sketch.NewSkeletonSketch for params the test knows are
// valid.
func mustSkeleton(p sketch.SkeletonParams) *sketch.SkeletonSketch {
	s, err := sketch.NewSkeletonSketch(p)
	if err != nil {
		panic(err)
	}
	return s
}
