package main

import (
	"os"
	"time"

	"graphsketch/internal/bench"
	"graphsketch/internal/core/vertexconn"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/workload"
)

// runE12 charts the scaling shapes behind the paper's space claims, at the
// largest n the harness runs comfortably. Absolute sketch sizes carry big
// polylog constants (see EXPERIMENTS.md), so the claims to validate are the
// *growth rates*:
//
//   - spanning sketches (Thm 2/13): words/n should grow only
//     polylogarithmically with n, while naive edge storage grows like m;
//   - vertex-connectivity sketches (Thm 4): words should track k·n·R up to
//     polylog factors — the words/(k·n) column at fixed R exposes the
//     polylog-only residual;
//   - update and decode times should stay near-linear.
func runE12(cfg Config, out *os.File) error {
	t1 := bench.NewTable("E12a — spanning sketch scaling with n (m = 4n stream, 50% churn)",
		"n", "m", "updates", "sketch words", "words/n", "naive words", "ingest", "decode")
	ns := []int{64, 128, 256, 512}
	if cfg.Quick {
		ns = []int{64, 128}
	}
	for _, n := range ns {
		rng := hashutil.NewRand(cfg.Seed, uint64(n))
		final := workload.ErdosRenyi(rng, n, 8.0/float64(n))
		churn := workload.ErdosRenyi(rng, n, 4.0/float64(n))
		st := stream.WithChurn(final, churn, rng)

		s := sketch.NewSpanning(cfg.Seed^uint64(n), final.Domain(), sketch.SpanningConfig{})
		start := time.Now()
		if err := stream.Apply(st, s); err != nil {
			return err
		}
		ingest := time.Since(start)
		start = time.Now()
		if _, err := s.Decode(nil); err != nil {
			return err
		}
		decode := time.Since(start)
		words := s.Words()
		t1.AddRow(n, final.EdgeCount(), len(st), words, words/n,
			final.EdgeCount()*3, ingest.Round(time.Millisecond).String(),
			decode.Round(time.Millisecond).String())
	}
	emitTable(t1, out)

	t2 := bench.NewTable("E12b — vertex-connectivity sketch scaling (R = 64 fixed)",
		"n", "k", "sketch words", "words/(k·n)", "ingest")
	type pt struct{ n, k int }
	pts := []pt{{64, 2}, {128, 2}, {256, 2}, {64, 4}, {128, 4}}
	if cfg.Quick {
		pts = []pt{{64, 2}, {128, 2}}
	}
	for _, p := range pts {
		h := workload.MustHarary(p.n, p.k)
		s, err := vertexconn.New(vertexconn.Params{N: p.n, K: p.k, Subgraphs: 64, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		start := time.Now()
		if err := stream.Apply(stream.FromGraph(h), s); err != nil {
			return err
		}
		ingest := time.Since(start)
		words := s.Words()
		t2.AddRow(p.n, p.k, words, words/(p.k*p.n), ingest.Round(time.Millisecond).String())
	}
	emitTable(t2, out)
	return nil
}
