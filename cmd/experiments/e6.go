package main

import (
	"errors"
	"os"

	"graphsketch/internal/bench"
	"graphsketch/internal/core/reconstruct"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/workload"
)

// runE6 validates the Section 4 reconstruction results. Part one: Lemma 16
// — light_k(G) computed by the recursive definition equals the set of edges
// with Benczúr–Karger strength ≤ k, on random graphs and hypergraphs. Part
// two: Theorem 15 — the (k+1)-skeleton sketch reconstructs d-cut-degenerate
// graphs exactly, including the paper's 8-vertex Lemma 10 example (which is
// 2-cut-degenerate but has minimum degree 3), while the Becker et al.
// d-degenerate baseline stalls on it at the same budget.
func runE6(cfg Config, out *os.File) error {
	// Part 1: Lemma 16 equivalence.
	t1 := bench.NewTable("E6a — Lemma 16: light_k = {e : strength(e) ≤ k}",
		"family", "r", "k", "agreement")
	rng := hashutil.NewRand(cfg.Seed, 6)
	trials := 10
	if cfg.Quick {
		trials = 4
	}
	for _, fam := range []struct {
		name string
		r    int
	}{{"G(12,.4)", 2}, {"3-uniform", 3}} {
		for _, k := range []int64{1, 2, 3} {
			var agree bench.Counter
			for trial := 0; trial < trials; trial++ {
				var h *hyper
				if fam.r == 2 {
					h = workload.ErdosRenyi(rng, 12, 0.4)
				} else {
					h = workload.UniformHypergraph(rng, 12, 3, 24)
				}
				direct := graphalg.LightEdges(h, k)
				byStrength := graphalg.LightEdgesByStrength(h, k)
				agree.Observe(direct.Equal(byStrength))
			}
			t1.AddRow(fam.name, fam.r, k, agree.String())
		}
	}
	emitTable(t1, out)

	// Part 2: Theorem 15 reconstruction vs the Becker baseline.
	t2 := bench.NewTable("E6b — Theorem 15: cut-degenerate reconstruction vs Becker baseline",
		"graph", "n", "degeneracy", "cut-deg", "budget d", "skeleton sketch", "Becker", "skeleton bytes", "Becker bytes")
	t2.Note = "The paper-example row is the separating instance of Lemma 10: cut-degeneracy 2,\n" +
		"min degree 3 — reconstructible by Theorem 15 at d=2, impossible for Becker at d=2."

	type inst struct {
		name string
		g    *hyper
		d    int
	}
	var instances []inst
	instances = append(instances, inst{"paper example", workload.PaperExample(), 2})
	ctRng := hashutil.NewRand(cfg.Seed, 66)
	instances = append(instances, inst{"clique tree q=4", workload.CliqueTree(ctRng, 5, 4), 3})
	instances = append(instances, inst{"clique tree q=5", workload.CliqueTree(ctRng, 4, 5), 4})

	for _, in := range instances {
		deg := graphalg.Degeneracy(in.g)
		cdeg := graphalg.CutDegeneracy(in.g)

		// Stream with churn through both sketches.
		rng := hashutil.NewRand(cfg.Seed, 67)
		churn := workload.ErdosRenyi(rng, in.g.N(), 0.3)
		st := stream.WithChurn(in.g, churn, rng)

		sk, err := sketch.NewSkeletonSketch(sketch.SkeletonParams{
			N: in.g.N(), R: in.g.Domain().R(), K: in.d + 1, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		if err := stream.Apply(st, sk); err != nil {
			return err
		}
		skGot, skErr := reconstruct.Reconstruct(sk)
		skStatus := "FAILED"
		if skErr == nil && skGot.Equal(in.g) {
			skStatus = "exact"
		} else if errors.Is(skErr, reconstruct.ErrIncomplete) {
			skStatus = "incomplete"
		}

		// Becker at slack 1 so the budget is exactly d (the honest
		// apples-to-apples capability comparison).
		bk := reconstruct.NewBecker(cfg.Seed, in.g.N(), in.d, 1)
		if err := stream.Apply(st, bk); err != nil {
			return err
		}
		bkGot, bkErr := bk.Reconstruct()
		bkStatus := "stalled"
		if bkErr == nil && bkGot.Equal(in.g) {
			bkStatus = "exact"
		} else if bkErr == nil {
			bkStatus = "wrong"
		}

		t2.AddRow(in.name, in.g.N(), deg, cdeg, in.d, skStatus, bkStatus,
			bench.FmtBytes(sk.Words()*8), bench.FmtBytes(bk.Words()*8))
	}
	emitTable(t2, out)
	return nil
}
