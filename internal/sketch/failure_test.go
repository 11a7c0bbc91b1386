package sketch

// Failure-injection tests: deliberately undersized sketches must *detect*
// their failures — returning errors — rather than silently decoding wrong
// answers. This is the operational content of the certified recoveries.

import (
	"math/rand/v2"
	"testing"

	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/l0"
	"graphsketch/internal/workload"
)

// tinyConfig is far below what dense graphs need: one Boruvka round and
// minimal samplers.
func tinyConfig() SpanningConfig {
	return SpanningConfig{Rounds: 1, Sampler: l0.Config{S: 1, Rows: 1, MaxLevels: 2}}
}

func TestUndersizedSpanningFailsLoudly(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 1))
	wrongAnswers := 0
	for trial := 0; trial < 30; trial++ {
		h := workload.ErdosRenyi(rng, 20, 0.4)
		s := NewSpanning(uint64(trial), h.Domain(), tinyConfig())
		if err := s.UpdateGraph(h, 1); err != nil {
			t.Fatal(err)
		}
		f, err := s.Decode(nil)
		if err != nil {
			continue // detected failure: the acceptable outcome
		}
		// A successful decode must still be sound: a subgraph whose
		// connectivity never exceeds the truth.
		for _, e := range f.Edges() {
			if !h.Has(e) {
				t.Fatalf("trial %d: fabricated edge %v from undersized sketch", trial, e)
			}
		}
		dh := graphalg.ComponentsOf(h)
		df := graphalg.ComponentsOf(f)
		for u := 0; u < h.N(); u++ {
			for v := u + 1; v < h.N(); v++ {
				if df.Same(u, v) && !dh.Same(u, v) {
					wrongAnswers++
				}
			}
		}
	}
	if wrongAnswers > 0 {
		t.Fatalf("%d connectivity over-claims from undersized sketches", wrongAnswers)
	}
}

func TestUndersizedSpanningReportsError(t *testing.T) {
	// On a graph a single round cannot span (a long path needs ~log n
	// rounds of Boruvka), the decode must return ErrDecodeFailed at least
	// sometimes — never a silent wrong forest.
	fails := 0
	for trial := 0; trial < 20; trial++ {
		h := graph.NewGraph(32)
		for i := 0; i < 31; i++ {
			h.AddSimple(i, i+1)
		}
		s := NewSpanning(uint64(trial), h.Domain(), tinyConfig())
		if err := s.UpdateGraph(h, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Decode(nil); err != nil {
			fails++
		}
	}
	if fails == 0 {
		t.Fatal("one Boruvka round spanned a 32-path in all 20 trials — failure detection untested")
	}
}

func TestUndersizedSkeletonNeverFabricates(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 1))
	for trial := 0; trial < 10; trial++ {
		h := workload.ErdosRenyi(rng, 16, 0.5)
		sk := mustSkeleton(SkeletonParams{N: h.N(), R: h.Domain().R(), K: 3, Spanning: tinyConfig(), Seed: uint64(trial)})
		if err := sk.UpdateGraph(h, 1); err != nil {
			t.Fatal(err)
		}
		skel, err := sk.Decode(nil)
		if err != nil {
			continue // detected
		}
		for _, e := range skel.Edges() {
			if !h.Has(e) {
				t.Fatalf("trial %d: fabricated skeleton edge %v", trial, e)
			}
		}
	}
}
