package vertexconn

import (
	"math/rand/v2"
	"testing"

	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/testutil/frametest"
	"graphsketch/internal/workload"
)

// TestEstimatorRefusesStackedFrame: an estimator frame in the layout that
// wrote each scale's whole state behind its big-endian length, in place of
// the vertex shares, is refused typed, and ReadFrom leaves the receiver as
// it was. The frames hold no update, a few, and a whole churned stream.
func TestEstimatorRefusesStackedFrame(t *testing.T) {
	const n = 8
	rng := rand.New(rand.NewPCG(30, 1))
	st := stream.WithChurn(workload.MustHarary(n, 2), workload.ErdosRenyi(rng, n, 0.3), rng)
	p := EstimatorParams{N: n, KMax: 4, Seed: 7, SubgraphsAt: func(k int) int { return 24 * k }}
	for _, updates := range []int{0, 4, len(st)} {
		e, err := NewEstimator(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := stream.Apply(st[:updates], e); err != nil {
			t.Fatal(err)
		}
		members := make([][]byte, len(e.scales))
		for i, s := range e.scales {
			for v := 0; v < n; v++ {
				members[i] = sketch.AppendShare(s, members[i], v)
			}
		}
		twin, err := NewEstimator(p)
		if err != nil {
			t.Fatal(err)
		}
		frametest.Refused(t, frametest.Stacked(t, frametest.Of(t, e), members...), twin)
	}
}
