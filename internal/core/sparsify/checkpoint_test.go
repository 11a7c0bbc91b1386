package sparsify

import (
	"math/rand/v2"
	"testing"

	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/testutil/frametest"
	"graphsketch/internal/workload"
)

// TestSketchRefusesStackedFrame: a sparsifier frame in the layout that
// wrote each level's whole state behind its big-endian length, in place of
// the vertex shares, is refused typed, and ReadFrom leaves the receiver as
// it was. The frames hold no update, a few, and a whole churned stream.
func TestSketchRefusesStackedFrame(t *testing.T) {
	const n = 8
	rng := rand.New(rand.NewPCG(30, 2))
	st := stream.WithChurn(workload.MustHarary(n, 2), workload.ErdosRenyi(rng, n, 0.3), rng)
	p := Params{N: n, K: 2, Seed: 7}
	for _, updates := range []int{0, 4, len(st)} {
		s, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := stream.Apply(st[:updates], s); err != nil {
			t.Fatal(err)
		}
		members := make([][]byte, len(s.levels))
		for i, l := range s.levels {
			for v := 0; v < n; v++ {
				members[i] = sketch.AppendShare(l, members[i], v)
			}
		}
		twin, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		frametest.Refused(t, frametest.Stacked(t, frametest.Of(t, s), members...), twin)
	}
}
