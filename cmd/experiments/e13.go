package main

import (
	"os"

	"graphsketch/internal/bench"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/l0"
	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/workload"
)

// runE13 calibrates the sketch parameters the profiles in internal/plan
// encode: the spanning-graph decode success rate as a function of the
// per-level recovery sparsity S, the rows per level, and the Boruvka round
// count. The failure modes are all *detected* (ErrDecodeFailed), so the
// table is a reliability-vs-space menu — the empirical grounding for the
// lean/balanced/theory profiles and for the repository-wide defaults
// (S=8, Rows=3, rounds=log2 n + 2).
func runE13(cfg Config, out *os.File) error {
	t := bench.NewTable("E13 — sampler calibration: spanning decode reliability vs size knobs",
		"S", "rows", "rounds(+log2 n)", "decode ok", "component-exact", "words/vertex")
	t.Note = "G(n=32, m≈3n) with 50% churn, 20 seeds per row. 'decode ok' counts successful\n" +
		"decodes (failures are detected errors); 'component-exact' requires the decoded\n" +
		"forest to match the true components exactly."

	n := 32
	trials := 20
	if cfg.Quick {
		trials = 8
	}
	type knob struct {
		s, rows, extraRounds int
	}
	knobs := []knob{
		{1, 1, 0}, {2, 2, 0}, {4, 2, 0}, {4, 2, 1},
		{8, 2, 2}, {8, 3, 2}, {16, 3, 2},
	}
	if cfg.Quick {
		knobs = []knob{{1, 1, 0}, {4, 2, 1}, {8, 3, 2}}
	}
	log2n := 5 // ⌈log2 32⌉
	for _, kb := range knobs {
		var ok, exact bench.Counter
		var words int
		for trial := 0; trial < trials; trial++ {
			rng := hashutil.NewRand(cfg.Seed, uint64(trial*131+kb.s))
			final := workload.ErdosRenyi(rng, n, 6.0/float64(n))
			churn := workload.ErdosRenyi(rng, n, 3.0/float64(n))
			scfg := sketch.SpanningConfig{
				Rounds:  log2n + kb.extraRounds,
				Sampler: l0.Config{S: kb.s, Rows: kb.rows},
			}
			s := sketch.NewSpanning(cfg.Seed^uint64(trial*7+kb.s*100), final.Domain(), scfg)
			if err := stream.Apply(stream.WithChurn(final, churn, rng), s); err != nil {
				return err
			}
			if w := s.Words() / n; w > words {
				words = w
			}
			f, err := s.Decode(nil)
			if err != nil {
				ok.Observe(false)
				exact.Observe(false)
				continue
			}
			ok.Observe(true)
			exact.Observe(sameComponents(final, f))
		}
		t.AddRow(kb.s, kb.rows, kb.extraRounds, ok.String(), exact.String(), words)
	}
	emitTable(t, out)
	return nil
}
