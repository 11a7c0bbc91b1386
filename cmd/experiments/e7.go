package main

import (
	"math"
	"math/rand/v2"
	"os"

	"graphsketch/internal/bench"
	"graphsketch/internal/core/sparsify"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/stream"
	"graphsketch/internal/workload"
)

// runE7 validates Theorems 19/20: the dynamic-stream hypergraph sparsifier.
// Dense graphs and 3-uniform hypergraphs are streamed with deletion churn;
// the decoded weighted subgraph's cuts are compared against the true graph
// over exhaustive (n ≤ 16) cuts. Sweeping the strength threshold K exposes
// the ε ↔ K tradeoff (K = O(ε⁻²(log n + r))): max cut error falls roughly
// like 1/√K while the sketch grows linearly in K. The global min cut —
// which the sparsifier must preserve exactly when below K — is reported
// separately.
func runE7(cfg Config, out *os.File) error {
	t := bench.NewTable("E7 — Theorems 19/20: hypergraph sparsifier quality vs K",
		"family", "n", "m", "K", "edges kept", "max cut err", "min cut (true→sp)", "BK edges", "BK max err", "sketch")
	t.Note = "max cut err over all 2^(n-1) cuts; ε ~ 1/√K (Theorem 20: K = O(ε⁻²(log n + r))).\n" +
		"BK columns: the classical offline Benczúr–Karger sparsifier at ε = 1/√K — the\n" +
		"non-streaming baseline whose quality the one-pass sketch is matching."

	ks := []int{2, 4, 8, 16}
	if cfg.Quick {
		ks = []int{2, 8}
	}
	type fam struct {
		name string
		r    int
		mk   func(rng *rand.Rand) *hyper
	}
	n := 14
	fams := []fam{
		{"G(n,.8)", 2, func(rng *rand.Rand) *hyper { return workload.ErdosRenyi(rng, n, 0.8) }},
		{"K_n", 2, func(rng *rand.Rand) *hyper { return workload.Complete(n) }},
		{"3-uniform", 3, func(rng *rand.Rand) *hyper { return workload.UniformHypergraph(rng, n, 3, 7*n) }},
	}
	if cfg.Quick {
		fams = fams[:2]
	}
	for _, f := range fams {
		for _, K := range ks {
			rng := hashutil.NewRand(cfg.Seed, uint64(K))
			final := f.mk(rng)
			churn := workload.MixedHypergraph(rng, n, f.r, 2*n)
			s, err := sparsify.New(sparsify.Params{N: n, R: f.r, K: K, Seed: cfg.Seed ^ uint64(K*17)})
			if err != nil {
				return err
			}
			if err := stream.Apply(stream.WithChurn(final, churn, rng), s); err != nil {
				return err
			}
			sp, err := s.Decode(nil)
			if err != nil {
				return err
			}
			worst := 0.0
			for mask := 1; mask < 1<<uint(n-1); mask++ {
				inS := func(v int) bool { return mask&(1<<uint(v)) != 0 }
				o := final.CutWeight(inS)
				g := sp.CutWeight(inS)
				if o == 0 {
					continue
				}
				if e := math.Abs(float64(g)-float64(o)) / float64(o); e > worst {
					worst = e
				}
			}
			trueMin, _, err := graphalg.GlobalMinCutAll(final)
			if err != nil {
				return err
			}
			spMin, _, err := graphalg.GlobalMinCutAll(sp)
			if err != nil {
				return err
			}
			// Offline Benczúr–Karger at the matching ε.
			bk := graphalg.BenczurKargerSparsifier(final, 1/math.Sqrt(float64(K)), 2, rng)
			bkWorst := 0.0
			for mask := 1; mask < 1<<uint(n-1); mask++ {
				inS := func(v int) bool { return mask&(1<<uint(v)) != 0 }
				o := final.CutWeight(inS)
				if o == 0 {
					continue
				}
				if e := math.Abs(float64(bk.CutWeight(inS))-float64(o)) / float64(o); e > bkWorst {
					bkWorst = e
				}
			}
			t.AddRow(f.name, n, final.EdgeCount(), K,
				sp.EdgeCount(), bench.FmtFloat(worst, 3),
				bench.FmtFloat(float64(trueMin), 0)+"→"+bench.FmtFloat(float64(spMin), 0),
				bk.EdgeCount(), bench.FmtFloat(bkWorst, 3),
				bench.FmtBytes(s.Words()*8))
		}
	}
	emitTable(t, out)
	return nil
}
