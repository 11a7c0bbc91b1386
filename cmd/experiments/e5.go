package main

import (
	"os"

	"graphsketch/internal/bench"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/workload"
)

// runE5 validates Theorem 14: a k-skeleton decoded from k independent
// spanning sketches satisfies |δ_H'(S)| ≥ min(|δ_H(S)|, k) for every cut.
// For n ≤ 14 the check is exhaustive over all 2^(n−1) cuts; streams carry
// deletion churn. The table reports violations (must be 0), the skeleton
// size against the k(n−1) bound, and sketch words scaling linearly in k.
func runE5(cfg Config, out *os.File) error {
	t := bench.NewTable("E5 — Theorem 14: k-skeleton cut preservation (exhaustive cuts)",
		"r", "k", "n", "cuts checked", "violations", "skeleton edges", "k(n-1)", "sketch")

	n := 12
	trials := 3
	if cfg.Quick {
		trials = 2
	}
	for _, r := range []int{2, 3} {
		for _, k := range []int{1, 2, 3, 4} {
			violations := 0
			cuts := 0
			var skelEdges, words int
			for trial := 0; trial < trials; trial++ {
				rng := hashutil.NewRand(cfg.Seed, uint64(r*100+k*10+trial))
				var final *hyper
				if r == 2 {
					final = workload.ErdosRenyi(rng, n, 0.45)
				} else {
					final = workload.UniformHypergraph(rng, n, r, 3*n)
				}
				churn := workload.MixedHypergraph(rng, n, r, 2*n)
				sk, err := sketch.NewSkeletonSketch(sketch.SkeletonParams{
					N: final.N(), R: final.Domain().R(), K: k, Seed: cfg.Seed ^ uint64(trial+k*7),
				})
				if err != nil {
					return err
				}
				if err := stream.Apply(stream.WithChurn(final, churn, rng), sk); err != nil {
					return err
				}
				words = sk.Words()
				skel, err := sk.Decode(nil)
				if err != nil {
					return err
				}
				skelEdges = skel.EdgeCount()
				for mask := 1; mask < 1<<uint(n-1); mask++ {
					inS := func(v int) bool { return mask&(1<<uint(v)) != 0 }
					orig := final.CutWeight(inS)
					got := skel.CutWeight(inS)
					want := orig
					if want > int64(k) {
						want = int64(k)
					}
					cuts++
					if got < want {
						violations++
					}
				}
			}
			t.AddRow(r, k, n, cuts, violations, skelEdges, k*(n-1), bench.FmtBytes(words*8))
		}
	}
	emitTable(t, out)
	return nil
}
