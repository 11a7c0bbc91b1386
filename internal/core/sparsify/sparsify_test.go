package sparsify

import (
	"math"
	"math/rand/v2"
	"testing"

	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/stream"
	"graphsketch/internal/workload"
)

// maxCutError returns the maximum relative error of the sparsifier's cut
// weights against the original over exhaustive (small n) or sampled cuts.
func maxCutError(t *testing.T, orig, sp *graph.Hypergraph, rng *rand.Rand) float64 {
	t.Helper()
	n := orig.N()
	worst := 0.0
	check := func(inS func(int) bool) {
		o := orig.CutWeight(inS)
		s := sp.CutWeight(inS)
		if o == 0 {
			if s != 0 {
				t.Fatalf("sparsifier invents weight %d on an empty cut", s)
			}
			return
		}
		err := math.Abs(float64(s)-float64(o)) / float64(o)
		if err > worst {
			worst = err
		}
	}
	if n <= 16 {
		for mask := 1; mask < 1<<uint(n-1); mask++ {
			check(func(v int) bool { return mask&(1<<uint(v)) != 0 })
		}
	} else {
		for i := 0; i < 3000; i++ {
			mask := rng.Uint64()
			check(func(v int) bool { return mask&(1<<uint(v%64)) != 0 })
		}
	}
	return worst
}

func TestParamsValidation(t *testing.T) {
	if _, err := New(Params{N: 1, K: 1}); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := New(Params{N: 8, K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
}

func TestTheoryK(t *testing.T) {
	k := TheoryK(256, 2, 0.5, 1)
	// ε⁻²(log2 256 + 2) = 4 * 10 = 40.
	if k != 40 {
		t.Fatalf("TheoryK = %d, want 40", k)
	}
}

func TestSparsifierPreservesCutsSmallGraph(t *testing.T) {
	// At K >= max strength, level 0 already captures everything: the
	// sparsifier must be *exact* (all edges with weight 1).
	h := workload.Cycle(10)
	s, err := New(Params{N: 10, K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Apply(stream.FromGraph(h), s); err != nil {
		t.Fatal(err)
	}
	sp, err := s.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Equal(h) {
		t.Fatalf("low-strength graph should be reproduced exactly: got %d edges weight %d",
			sp.EdgeCount(), sp.TotalWeight())
	}
}

func TestSparsifierDenseGraph(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 3))
	h := workload.ErdosRenyi(rng, 14, 0.8)
	s, err := New(Params{N: 14, K: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Apply(stream.FromGraph(h), s); err != nil {
		t.Fatal(err)
	}
	sp, err := s.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every sparsifier edge is a real edge.
	for _, e := range sp.Edges() {
		if !h.Has(e) {
			t.Fatalf("fabricated edge %v", e)
		}
	}
	worst := maxCutError(t, h, sp, rng)
	if worst > 0.75 {
		t.Fatalf("max relative cut error %.2f too large for K=8", worst)
	}
	// Total weight approximates edge count.
	if math.Abs(float64(sp.TotalWeight()-int64(h.EdgeCount()))) > 0.5*float64(h.EdgeCount()) {
		t.Fatalf("total weight %d far from m=%d", sp.TotalWeight(), h.EdgeCount())
	}
}

func TestSparsifierHypergraph(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 5))
	h := workload.UniformHypergraph(rng, 12, 3, 80)
	s, err := New(Params{N: 12, R: 3, K: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Apply(stream.FromGraph(h), s); err != nil {
		t.Fatal(err)
	}
	sp, err := s.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sp.Edges() {
		if !h.Has(e) {
			t.Fatalf("fabricated hyperedge %v", e)
		}
	}
	worst := maxCutError(t, h, sp, rng)
	if worst > 0.75 {
		t.Fatalf("hypergraph max cut error %.2f too large", worst)
	}
}

func TestSparsifierPlantedMinCut(t *testing.T) {
	// The planted small cut is far below K, so its edges are light and
	// must be preserved *exactly* (weight 1 each).
	rng := rand.New(rand.NewPCG(6, 7))
	n := 16
	h := workload.PlantedCutHypergraph(rng, n, 3, 60, 3)
	s, err := New(Params{N: n, R: 3, K: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Apply(stream.FromGraph(h), s); err != nil {
		t.Fatal(err)
	}
	sp, err := s.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	inS := func(v int) bool { return v < n/2 }
	if got, want := sp.CutWeight(inS), h.CutWeight(inS); got != want {
		t.Fatalf("planted cut weight %d, want exactly %d", got, want)
	}
}

func TestSparsifierWithDeletions(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	final := workload.ErdosRenyi(rng, 12, 0.5)
	churn := workload.ErdosRenyi(rng, 12, 0.5)
	s, err := New(Params{N: 12, K: 6, Seed: 11})
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
	for _, e := range sp.Edges() {
		if !final.Has(e) {
			t.Fatalf("sparsifier contains deleted edge %v", e)
		}
	}
	worst := maxCutError(t, final, sp, rng)
	if worst > 0.75 {
		t.Fatalf("post-churn max cut error %.2f", worst)
	}
}

func TestSparsifierEmptyGraph(t *testing.T) {
	s, err := New(Params{N: 8, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := s.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sp.EdgeCount() != 0 {
		t.Fatal("empty stream produced edges")
	}
}

func TestSparsifierErrorDecreasesWithK(t *testing.T) {
	// The ε ↔ K tradeoff (Theorem 20): larger K gives smaller cut error.
	rng := rand.New(rand.NewPCG(10, 11))
	h := workload.ErdosRenyi(rng, 14, 0.9)
	errAt := func(k int) float64 {
		s, err := New(Params{N: 14, K: k, Seed: uint64(100 + k)})
		if err != nil {
			t.Fatal(err)
		}
		if err := stream.Apply(stream.FromGraph(h), s); err != nil {
			t.Fatal(err)
		}
		sp, err := s.Decode(nil)
		if err != nil {
			t.Fatal(err)
		}
		return maxCutError(t, h, sp, rng)
	}
	small := errAt(2)
	big := errAt(12)
	if big > small+0.05 {
		t.Fatalf("error did not shrink with K: K=2 → %.3f, K=12 → %.3f", small, big)
	}
}

func TestWordsAccounting(t *testing.T) {
	s, err := New(Params{N: 8, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Update(graph.MustEdge(0, 1), 1); err != nil {
		t.Fatal(err)
	}
	total := 0
	for v := 0; v < 8; v++ {
		total += s.VertexWords(v)
	}
	// Vertex shares are cell state only; Words additionally counts the
	// interned shared randomness once per sampler family.
	if total+s.SharedWords() != s.Words() {
		t.Fatalf("vertex shares %d + shared %d != total %d", total, s.SharedWords(), s.Words())
	}
}

func TestSparsifierSizeSublinearInEdges(t *testing.T) {
	// The sparsifier keeps O(K · n · levels) edges regardless of m. On a
	// dense graph the output must be much smaller than the input.
	rng := rand.New(rand.NewPCG(12, 13))
	h := workload.Complete(16) // 120 edges
	s, err := New(Params{N: 16, K: 3, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Apply(stream.FromGraph(h), s); err != nil {
		t.Fatal(err)
	}
	sp, err := s.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sp.EdgeCount() >= h.EdgeCount() {
		t.Fatalf("sparsifier has %d edges, input %d — no compression", sp.EdgeCount(), h.EdgeCount())
	}
	worst := maxCutError(t, h, sp, rng)
	t.Logf("K16: kept %d/%d edges, max cut error %.3f", sp.EdgeCount(), h.EdgeCount(), worst)
}

// Offline reference: the same level-peeling algorithm run on explicit
// graphs. Cross-checks the sketch decode end to end.
func offlineSparsifier(t *testing.T, s *Sketch, h *graph.Hypergraph) *graph.Hypergraph {
	t.Helper()
	p := s.Params()
	out := graph.MustHypergraph(p.N, p.R)
	cur := make([]*graph.Hypergraph, p.Levels+1)
	for i := range cur {
		cur[i] = graph.MustHypergraph(p.N, p.R)
	}
	for _, e := range h.Edges() {
		lv, err := s.EdgeLevel(e)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= lv && i <= p.Levels; i++ {
			cur[i].MustAddEdge(e, 1)
		}
	}
	for i := 0; i <= p.Levels; i++ {
		fi := graphalg.LightEdges(cur[i], int64(p.K))
		for _, e := range fi.Edges() {
			out.MustAddEdge(e, int64(1)<<uint(i))
			for j := i; j <= p.Levels; j++ {
				if cur[j].Has(e) {
					cur[j].MustAddEdge(e, -1)
				}
			}
		}
	}
	return out
}

func TestSketchMatchesOfflineAlgorithm(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 15))
	h := workload.ErdosRenyi(rng, 12, 0.6)
	s, err := New(Params{N: 12, K: 4, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Apply(stream.FromGraph(h), s); err != nil {
		t.Fatal(err)
	}
	got, err := s.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := offlineSparsifier(t, s, h)
	if !got.Equal(want) {
		t.Fatalf("sketch decode differs from offline algorithm:\n got %v\nwant %v",
			got.WeightedEdges(), want.WeightedEdges())
	}
}

func TestCutOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 21))
	h := workload.ErdosRenyi(rng, 14, 0.7)
	s, err := New(Params{N: 14, K: 10, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Apply(stream.FromGraph(h), s); err != nil {
		t.Fatal(err)
	}
	o, err := s.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	// Oracle queries agree with the sparsifier's cut weights.
	for trial := 0; trial < 200; trial++ {
		mask := rng.Uint64()
		inS := func(v int) bool { return mask&(1<<uint(v)) != 0 }
		if o.CutWeight(inS) != o.Sparsifier().CutWeight(inS) {
			t.Fatal("oracle disagrees with its own sparsifier")
		}
	}
	// Approximate min cut is within the tested error band of the truth.
	trueMin, _, err := graphalg.GlobalMinCutAll(h)
	if err != nil {
		t.Fatal(err)
	}
	gotMin, side, err := o.MinCut()
	if err != nil {
		t.Fatal(err)
	}
	if len(side) == 0 {
		t.Fatal("no witness side")
	}
	lo, hi := float64(trueMin)*0.4, float64(trueMin)*1.8
	if float64(gotMin) < lo || float64(gotMin) > hi {
		t.Fatalf("approx min cut %d outside [%.0f, %.0f] of true %d", gotMin, lo, hi, trueMin)
	}
}
