//go:build !race

// Stress tests at the largest scales the suite runs: skipped under -short,
// they guard against superlinear blowups in update or decode paths and
// against failure-probability regressions that only show at volume.
package graphsketch_test

import (
	"math/rand/v2"
	"testing"

	"graphsketch/internal/core/sparsify"
	"graphsketch/internal/core/vertexconn"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/workload"
)

func TestStressSpanningLargeChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	rng := rand.New(rand.NewPCG(100, 1))
	n := 256
	final := workload.ErdosRenyi(rng, n, 10.0/float64(n))
	churn := workload.ErdosRenyi(rng, n, 20.0/float64(n))
	st := stream.WithChurn(final, churn, rng)
	if len(st) < 5000 {
		t.Fatalf("stream too small for a stress test: %d", len(st))
	}
	s := sketch.NewSpanning(1, final.Domain(), sketch.SpanningConfig{})
	if err := stream.Apply(st, s); err != nil {
		t.Fatal(err)
	}
	f, err := s.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	da, db := graphalg.ComponentsOf(final), graphalg.ComponentsOf(f)
	if da.Components() != db.Components() {
		t.Fatalf("component count %d, want %d", db.Components(), da.Components())
	}
	for _, e := range f.Edges() {
		if !final.Has(e) {
			t.Fatalf("fabricated edge %v at stress scale", e)
		}
	}
}

func TestStressVertexConnLarger(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	n, k := 96, 3
	h := workload.MustHarary(n, k)
	rng := rand.New(rand.NewPCG(101, 1))
	churn := workload.ErdosRenyi(rng, n, 6.0/float64(n))
	s, err := vertexconn.New(vertexconn.Params{N: n, K: k, Subgraphs: 96, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Apply(stream.WithChurn(h, churn, rng), s); err != nil {
		t.Fatal(err)
	}
	got, err := s.EstimateConnectivity(int64(k))
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(k) {
		t.Fatalf("κ estimate %d, want %d", got, k)
	}
}

func TestStressSparsifierMediumDense(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	rng := rand.New(rand.NewPCG(102, 1))
	n := 24
	final := workload.ErdosRenyi(rng, n, 0.6)
	churn := workload.ErdosRenyi(rng, n, 0.6)
	s, err := sparsify.New(sparsify.Params{N: n, K: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Apply(stream.WithChurn(final, churn, rng), s); err != nil {
		t.Fatal(err)
	}
	sp, err := s.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	worstRatio := 1.0
	for trial := 0; trial < 4000; trial++ {
		mask := rng.Uint64()
		inS := func(v int) bool { return mask&(1<<uint(v)) != 0 }
		o, g := final.CutWeight(inS), sp.CutWeight(inS)
		if o == 0 {
			if g != 0 {
				t.Fatal("invented cut weight")
			}
			continue
		}
		r := float64(g) / float64(o)
		if r < 1 {
			r = 1 / r
		}
		if r > worstRatio {
			worstRatio = r
		}
	}
	if worstRatio > 2.0 {
		t.Fatalf("worst cut ratio %.2f at K=12", worstRatio)
	}
}
