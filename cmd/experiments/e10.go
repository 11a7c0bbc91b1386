package main

import (
	"os"

	"graphsketch/internal/bench"
	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/l0"
	"graphsketch/internal/lowerbound"
	"graphsketch/internal/sketch"
	"graphsketch/internal/workload"
)

// runE10 demonstrates the two cautionary results the paper belabours.
//
// Part one (Section 4.2, footnote 3): peeling spanning forests repeatedly
// out of ONE spanning sketch — decode F_1, subtract, decode F_2, … — is an
// invalid use of the union bound, and information-theoretically cannot work
// in general: it would let an O(n polylog n)-bit sketch reconstruct all
// Ω(n² log n) bits of a dense graph. The ablation peels K_n to exhaustion
// with one reused sketch and reports the bit accounting: at laptop scale
// the sketch holds far more bits than the graph (ratio ≫ 1), which is *why*
// reuse happens to survive here — and the ratio visibly shrinks as n grows
// (sketch Θ(n polylog n) vs graph Θ(n² log n)), which is why it must fail
// at scale, exactly as the paper argues. A proper Theorem 14 skeleton stack
// (independent layers) is shown alongside.
//
// Part two (Theorem 21): the scan-first-search-tree reduction — in Bob's
// completed INDEX graph, any SFST reveals Alice's bit x_{i,j} through the
// presence of {t_j, u_i} or {v_i, w_j}, which is why SFST streaming needs
// Ω(n²) space and Section 3 takes the subsampling route instead.
func runE10(cfg Config, out *os.File) error {
	// Part 1: reuse ablation.
	t1 := bench.NewTable("E10a — Section 4.2 ablation: peeling forests from one reused sketch",
		"n", "m(K_n)", "mode", "extracted", "false", "outcome", "sketch bits", "graph bits", "ratio")
	t1.Note = "reuse only 'works' while sketch bits >> graph bits; the ratio shrinks like\n" +
		"polylog(n)/n, so the paper's footnote-3 contradiction binds at scale."

	ns := []int{12, 24, 48, 96}
	if cfg.Quick {
		ns = []int{12, 24}
	}
	lean := sketch.SpanningConfig{Rounds: 6, Sampler: l0.Config{S: 2, Rows: 2}}
	for _, n := range ns {
		h := workload.Complete(n)
		m := h.EdgeCount()
		graphBits := m * bitsPerEdge(n)

		// Independent (valid): a Theorem 14 skeleton stack sized for full
		// extraction (only at the smallest n — it is big).
		if n <= 24 {
			sk, err := sketch.NewSkeletonSketch(sketch.SkeletonParams{
				N: n, R: h.Domain().R(), K: n / 2, Spanning: lean, Seed: cfg.Seed,
			})
			if err != nil {
				return err
			}
			if err := sk.UpdateGraph(h, 1); err != nil {
				return err
			}
			skel, err := sk.Decode(nil)
			outcome := "ok"
			trueEdges, falseEdges := 0, 0
			if err != nil {
				outcome = "decode error"
			} else {
				for _, e := range skel.Edges() {
					if h.Has(e) {
						trueEdges++
					} else {
						falseEdges++
					}
				}
			}
			skBits := sk.Words() * 64
			t1.AddRow(n, m, "independent", trueEdges, falseEdges, outcome,
				skBits, graphBits, bench.FmtFloat(float64(skBits)/float64(graphBits), 1))
		}

		// Reused (invalid): one spanning sketch peeled to exhaustion.
		sp := sketch.NewSpanning(cfg.Seed, h.Domain(), lean)
		if err := sp.UpdateGraph(h, 1); err != nil {
			return err
		}
		spBits := sp.Words() * 64
		trueEdges, falseEdges := 0, 0
		outcome := "fully peeled"
		extracted := graph.NewGraph(n)
		for round := 0; round < n; round++ {
			f, err := sp.Decode(nil)
			if err != nil {
				outcome = "decode failure (detected)"
				break
			}
			if f.EdgeCount() == 0 {
				break
			}
			bad := false
			for _, e := range f.Edges() {
				if h.Has(e) && !extracted.Has(e) {
					trueEdges++
					extracted.MustAddEdge(e, 1)
				} else {
					falseEdges++
					bad = true
				}
			}
			if bad {
				outcome = "WRONG edges decoded"
				break
			}
			if err := sp.UpdateGraph(f, -1); err != nil {
				return err
			}
		}
		if trueEdges < m && outcome == "fully peeled" {
			outcome = "stalled"
		}
		t1.AddRow(n, m, "reused", trueEdges, falseEdges, outcome,
			spBits, graphBits, bench.FmtFloat(float64(spBits)/float64(graphBits), 1))
	}
	emitTable(t1, out)

	// Part 2: SFST reduction of Theorem 21.
	t2 := bench.NewTable("E10b — Theorem 21: SFSTs decode INDEX (why SFST streaming costs Ω(n²))",
		"n", "bits probed", "decoded correctly", "bits in graph")
	t2.Note = "Alice's x ∈ {0,1}^{n×n} becomes a 4n-vertex graph; Bob adds {u_i,v_i} and reads\n" +
		"x[i,j] off any scan-first search tree. One SFST per query decodes one bit."

	nBits := 12
	rng := hashutil.NewRand(cfg.Seed, 10)
	inst := lowerbound.RandomIndex(rng, nBits, nBits)
	var dec bench.Counter
	probes := 40
	for p := 0; p < probes; p++ {
		i, j := rng.IntN(nBits), rng.IntN(nBits)
		got, err := lowerbound.Theorem21Protocol(inst, graphalg.ScanFirstTree, i, j)
		if err != nil {
			return err
		}
		dec.Observe(got == inst.Bits[i][j])
	}
	t2.AddRow(nBits, probes, dec.String(), nBits*nBits)
	emitTable(t2, out)
	return nil
}

// bitsPerEdge is the information cost of naming one edge of K_n.
func bitsPerEdge(n int) int {
	b := 0
	for v := n * n; v > 1; v >>= 1 {
		b++
	}
	return b
}
