// Randomized cross-check harness: generates random dynamic streams and
// validates every core sketch against offline ground truth in one loop.
// This is the catch-all net for seam bugs the targeted tests don't reach —
// every iteration draws a fresh workload shape, churn level, and seed.
package graphsketch_test

import (
	"math/rand/v2"
	"testing"

	"graphsketch/internal/core/edgeconn"
	"graphsketch/internal/core/vertexconn"
	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/workload"
)

// randomWorkload draws a final graph and a churn graph of a random family.
func randomWorkload(rng *rand.Rand) (final, churn *graph.Hypergraph) {
	n := 10 + rng.IntN(8)
	switch rng.IntN(5) {
	case 0:
		final = workload.ErdosRenyi(rng, n, 0.2+0.4*rng.Float64())
	case 1:
		final = workload.MustHarary(n, 2+rng.IntN(3))
	case 2:
		final = workload.UniformHypergraph(rng, n, 3, 2*n+rng.IntN(2*n))
	case 3:
		final = workload.CliqueTree(rng, 3, 3+rng.IntN(2))
	default:
		final = workload.PreferentialAttachment(rng, n, 1+rng.IntN(2))
	}
	if final.R() > 2 {
		churn = workload.MixedHypergraph(rng, final.N(), final.R(), final.EdgeCount())
	} else {
		churn = workload.ErdosRenyi(rng, final.N(), 0.3)
	}
	return final, churn
}

func TestCrossCheckRandomizedStreams(t *testing.T) {
	iterations := 12
	if testing.Short() {
		iterations = 4
	}
	for iter := 0; iter < iterations; iter++ {
		rng := rand.New(rand.NewPCG(uint64(iter), 0xc05c))
		final, churn := randomWorkload(rng)
		var st stream.Stream
		if rng.IntN(2) == 0 {
			st = stream.WithChurn(final, churn, rng)
		} else {
			var seq []graph.Hyperedge
			for _, e := range churn.Edges() {
				if !final.Has(e) {
					seq = append(seq, e)
				}
			}
			seq = append(seq, final.Edges()...)
			st = stream.SlidingWindow(seq, final.EdgeCount())
		}
		// The stream must materialize to the workload; if not, the
		// generator (not a sketch) is broken.
		got, err := stream.Materialize(st, final.N(), final.R())
		if err != nil || !got.Equal(final) {
			t.Fatalf("iter %d: stream does not materialize (%v)", iter, err)
		}

		// 1. Connectivity via spanning sketch.
		sp := sketch.NewSpanning(uint64(iter), final.Domain(), sketch.SpanningConfig{})
		if err := stream.Apply(st, sp); err != nil {
			t.Fatal(err)
		}
		f, err := sp.Decode(nil)
		if err != nil {
			t.Fatalf("iter %d: spanning decode: %v", iter, err)
		}
		da, db := graphalg.ComponentsOf(final), graphalg.ComponentsOf(f)
		if da.Components() != db.Components() {
			t.Fatalf("iter %d: components %d vs %d", iter, db.Components(), da.Components())
		}
		for _, e := range f.Edges() {
			if !final.Has(e) {
				t.Fatalf("iter %d: fabricated edge %v", iter, e)
			}
		}

		// 2. Edge connectivity via skeleton, vs MA-ordering and Karger.
		kCap := 5
		ec := mustSkeleton(sketch.SkeletonParams{N: final.N(), R: final.Domain().R(), K: kCap, Seed: uint64(iter) + 99})
		if err := stream.Apply(st, ec); err != nil {
			t.Fatal(err)
		}
		skel, err := ec.Decode(nil)
		if err != nil {
			t.Fatalf("iter %d: skeleton decode: %v", iter, err)
		}
		lambdaHat, _, err := edgeconn.Connectivity(skel, kCap)
		if err != nil {
			t.Fatalf("iter %d: edgeconn: %v", iter, err)
		}
		trueLambda, _, err := graphalg.GlobalMinCutAll(final)
		if err != nil {
			t.Fatal(err)
		}
		karger, _ := graphalg.KargerMinCut(final, 150, rng)
		if karger < trueLambda {
			t.Fatalf("iter %d: Karger %d below MA-ordering %d — one of them is wrong", iter, karger, trueLambda)
		}
		want := trueLambda
		if want > int64(kCap) {
			want = int64(kCap)
		}
		if lambdaHat != want {
			t.Fatalf("iter %d: λ̂ = %d, want %d", iter, lambdaHat, want)
		}

		// 3. Vertex connectivity estimate never exceeds truth (graphs).
		if final.R() == 2 {
			vc, err := vertexconn.New(vertexconn.Params{
				N: final.N(), K: 3, Subgraphs: 64, Seed: uint64(iter) + 7})
			if err != nil {
				t.Fatal(err)
			}
			if err := stream.Apply(st, vc); err != nil {
				t.Fatal(err)
			}
			est, err := vc.EstimateConnectivity(3)
			if err != nil {
				t.Fatalf("iter %d: vconn decode: %v", iter, err)
			}
			trueK := graphalg.VertexConnectivity(final, 3)
			if est > trueK {
				t.Fatalf("iter %d: κ̂ = %d > κ = %d", iter, est, trueK)
			}
		}
	}
}
