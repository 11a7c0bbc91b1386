package main

import (
	"math/rand/v2"
	"os"

	"graphsketch/internal/bench"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/workload"
)

// runE4 validates Theorem 13: the first dynamic-stream sketch for
// hypergraph connectivity. For each hyperedge cardinality r, random
// r-uniform hypergraphs (one connected, one with two planted components)
// are streamed with ~50% deletion churn; the decoded spanning graph must
// reproduce the exact component structure. The table reports decode
// success across seeds and the sketch size against naive edge storage —
// the O(n polylog n) vs O(m·r) gap that motivates sketching.
func runE4(cfg Config, out *os.File) error {
	t := bench.NewTable("E4 — Theorem 13: hypergraph spanning-graph sketches under churn",
		"r", "n", "m(final)", "updates", "components ok", "sketch", "naive edges")
	t.Note = "streams are ~2/3 deletions by volume; 'components ok' requires the decoded\n" +
		"spanning graph to match the true component structure exactly."

	ns := []int{16, 32, 64}
	if cfg.Quick {
		ns = []int{16, 32}
	}
	trials := 8
	if cfg.Quick {
		trials = 4
	}
	for _, r := range []int{2, 3, 4} {
		for _, n := range ns {
			var ok bench.Counter
			var words, updates, m int
			for trial := 0; trial < trials; trial++ {
				rng := hashutil.NewRand(cfg.Seed, uint64(r*1000+n*10+trial))
				var final *hyper
				if trial%2 == 0 {
					final = workload.UniformHypergraph(rng, n, r, 3*n)
				} else {
					// Two planted components: left half and right half.
					final = plantedTwoComponents(rng, n, r)
				}
				churn := workload.UniformHypergraph(rng, n, r, 3*n)
				st := stream.WithChurn(final, churn, rng)
				updates = len(st)
				m = final.EdgeCount()

				s := sketch.NewSpanning(cfg.Seed^uint64(trial*31+n), final.Domain(), sketch.SpanningConfig{})
				if err := stream.Apply(st, s); err != nil {
					return err
				}
				words = s.Words()
				f, err := s.Decode(nil)
				if err != nil {
					ok.Observe(false)
					continue
				}
				ok.Observe(sameComponents(final, f))
			}
			t.AddRow(r, n, m, updates, ok.String(),
				bench.FmtBytes(words*8), bench.FmtBytes(m*(r+1)*8))
		}
	}
	emitTable(t, out)
	return nil
}

func sameComponents(a, b *hyper) bool {
	da := graphalg.ComponentsOf(a)
	db := graphalg.ComponentsOf(b)
	n := a.N()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if da.Same(u, v) != db.Same(u, v) {
				return false
			}
		}
	}
	return true
}

func plantedTwoComponents(rng *rand.Rand, n, r int) *hyper {
	h := workload.PlantedCutHypergraph(rng, n, r, 2*n, 0)
	return h
}
