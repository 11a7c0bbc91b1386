package vertexconn

import (
	"errors"
	"math/rand/v2"
	"testing"

	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/stream"
	"graphsketch/internal/testutil/decodetest"
	"graphsketch/internal/workload"
)

// practical returns a practical-profile Params for tests: enough subgraphs
// for reliability at small n without the paper's constants.
func practical(n, k, subgraphs int, seed uint64) Params {
	return Params{N: n, R: 2, K: k, Subgraphs: subgraphs, Seed: seed}
}

func TestParamsValidation(t *testing.T) {
	if _, err := New(Params{N: 1, K: 1, Subgraphs: 1}); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := New(Params{N: 10, K: 0, Subgraphs: 1}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := New(Params{N: 10, K: 1, Subgraphs: 0}); err == nil {
		t.Error("Subgraphs=0 accepted")
	}
}

func TestTheoryParams(t *testing.T) {
	p := TheoryQueryParams(100, 2, 3, 1)
	// 16 * 9 * ln 100 ≈ 663.
	if p.Subgraphs < 600 || p.Subgraphs > 700 {
		t.Fatalf("theory query R = %d, want ≈663", p.Subgraphs)
	}
	pe := TheoryEstimateParams(100, 2, 3, 0.5, 1)
	if pe.Subgraphs < 2*p.Subgraphs {
		t.Fatalf("estimate R = %d should exceed 20x query R/10", pe.Subgraphs)
	}
}

func TestMembershipProbability(t *testing.T) {
	s, err := New(practical(200, 4, 128, 7))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < 128; i++ {
		for v := 0; v < 200; v++ {
			if s.InSubgraph(i, v) {
				total++
			}
		}
	}
	// Expected 200*128/4 = 6400.
	if total < 5500 || total > 7300 {
		t.Fatalf("membership total %d far from expectation 6400", total)
	}
}

func TestQueryHubRemoval(t *testing.T) {
	// Star with an extra cycle among leaves 1..4; removing the hub {0}
	// disconnects vertex 5 (attached only to the hub).
	h := graph.NewGraph(6)
	h.AddSimple(0, 5)
	for i := 1; i <= 4; i++ {
		h.AddSimple(0, i)
	}
	h.AddSimple(1, 2)
	h.AddSimple(2, 3)
	h.AddSimple(3, 4)
	h.AddSimple(4, 1)

	s, err := New(practical(6, 1, 48, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Apply(stream.FromGraph(h), s); err != nil {
		t.Fatal(err)
	}
	got, err := s.Disconnects(map[int]bool{0: true})
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("removing the hub should disconnect")
	}
	got, err = s.Disconnects(map[int]bool{1: true})
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("removing a cycle leaf should not disconnect")
	}
}

func TestQueryAccuracyOnSharedCliques(t *testing.T) {
	// Two cliques sharing exactly s vertices: the shared set is the unique
	// minimum separator.
	h, err := workload.SharedCliques(6, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(practical(h.N(), 2, 96, 11))
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Apply(stream.FromGraph(h), s); err != nil {
		t.Fatal(err)
	}
	sep := map[int]bool{0: true, 1: true} // the shared vertices
	got, err := s.Disconnects(sep)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("shared separator should disconnect")
	}
	// Non-separators of the same size.
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 10; trial++ {
		a, b := rng.IntN(h.N()), rng.IntN(h.N())
		if a == b {
			continue
		}
		set := map[int]bool{a: true, b: true}
		want := graphalg.DisconnectsQueryMode(h, set, graph.DropIncident)
		got, err := s.Disconnects(set)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("query %v: got %v, want %v", set, got, want)
		}
	}
}

func TestQueryWithDeletions(t *testing.T) {
	// Stream churn then settle on a graph where {2} is a cut vertex.
	final := graph.NewGraph(7)
	final.AddSimple(0, 1)
	final.AddSimple(1, 2)
	final.AddSimple(0, 2)
	final.AddSimple(2, 3)
	final.AddSimple(3, 4)
	final.AddSimple(4, 2)
	final.AddSimple(4, 5)
	final.AddSimple(5, 6)
	final.AddSimple(6, 4)
	rng := rand.New(rand.NewPCG(5, 6))
	churn := workload.ErdosRenyi(rng, 7, 0.5)

	s, err := New(practical(7, 1, 48, 13))
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Apply(stream.WithChurn(final, churn, rng), s); err != nil {
		t.Fatal(err)
	}
	got, err := s.Disconnects(map[int]bool{2: true})
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("cut vertex 2 not detected after churn")
	}
	got, err = s.Disconnects(map[int]bool{1: true})
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("non-cut vertex 1 reported as separator")
	}
}

func TestQueryTooLarge(t *testing.T) {
	s, err := New(practical(10, 2, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Disconnects(map[int]bool{0: true, 1: true, 2: true})
	if !errors.Is(err, ErrQueryTooLarge) {
		t.Fatalf("got %v, want ErrQueryTooLarge", err)
	}
}

func TestEstimateHarary(t *testing.T) {
	// κ(H_{k,n}) = k exactly: the estimator (capped at K) must see a
	// k-connected H for k-connected G, and must not overestimate κ < K.
	for _, tc := range []struct{ n, k, cap_ int }{
		{16, 3, 3}, // 3-connected graph, ask "is it 3-connected" — yes
		{16, 2, 4}, // 2-connected graph, cap 4 — estimate must be exactly 2
	} {
		h := workload.MustHarary(tc.n, tc.k)
		s, err := New(practical(tc.n, tc.cap_, 160, uint64(tc.n*tc.k)))
		if err != nil {
			t.Fatal(err)
		}
		if err := stream.Apply(stream.FromGraph(h), s); err != nil {
			t.Fatal(err)
		}
		got, err := s.EstimateConnectivity(int64(tc.cap_))
		if err != nil {
			t.Fatal(err)
		}
		want := int64(tc.k)
		if want > int64(tc.cap_) {
			want = int64(tc.cap_)
		}
		// κ(H) ≤ κ(G) always; with enough subgraphs it matches exactly.
		if got > want {
			t.Fatalf("H_{%d,%d}: estimate %d exceeds true κ %d", tc.k, tc.n, got, want)
		}
		if got < want {
			t.Fatalf("H_{%d,%d}: estimate %d below true κ %d (under-sampled)", tc.k, tc.n, got, want)
		}
	}
}

func TestEstimateNeverOverestimates(t *testing.T) {
	// H ⊆ G implies κ(H) ≤ κ(G) deterministically — even with absurdly few
	// subgraphs the estimate can only be too low, never too high.
	rng := rand.New(rand.NewPCG(9, 9))
	for trial := 0; trial < 5; trial++ {
		h := workload.ErdosRenyi(rng, 12, 0.4)
		trueK := graphalg.VertexConnectivity(h, 6)
		s, err := New(practical(12, 6, 4, uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		if err := stream.Apply(stream.FromGraph(h), s); err != nil {
			t.Fatal(err)
		}
		got, err := s.EstimateConnectivity(6)
		if err != nil {
			t.Fatal(err)
		}
		if got > trueK {
			t.Fatalf("trial %d: estimate %d > true κ %d", trial, got, trueK)
		}
	}
}

func TestHypergraphQuery(t *testing.T) {
	// Two triangles of 3-edges joined through vertex 3: removing {3}
	// disconnects (drop-incident semantics).
	h := graph.MustHypergraph(7, 3)
	h.AddSimple(0, 1, 2)
	h.AddSimple(1, 2, 3)
	h.AddSimple(3, 4, 5)
	h.AddSimple(4, 5, 6)
	s, err := New(Params{N: 7, R: 3, K: 1, Subgraphs: 48, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Apply(stream.FromGraph(h), s); err != nil {
		t.Fatal(err)
	}
	got, err := s.Disconnects(map[int]bool{3: true})
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("hyperedge cut vertex not detected")
	}
	got, err = s.Disconnects(map[int]bool{0: true})
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("non-separator reported as separator")
	}
}

func TestEstimateRejectsHypergraphs(t *testing.T) {
	s, err := New(Params{N: 7, R: 3, K: 1, Subgraphs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.EstimateConnectivity(3); err == nil {
		t.Fatal("hypergraph estimation should be rejected")
	}
}

func TestVertexBasedSpaceAccounting(t *testing.T) {
	s, err := New(practical(10, 2, 16, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Update(graph.MustEdge(0, 1), 1); err != nil {
		t.Fatal(err)
	}
	total := 0
	for v := 0; v < 10; v++ {
		total += s.VertexWords(v)
	}
	// Vertex shares are cell state only; Words additionally counts the
	// interned shared randomness once per sampler family.
	if total+s.SharedWords() != s.Words() {
		t.Fatalf("vertex shares %d + shared %d != total %d", total, s.SharedWords(), s.Words())
	}
	if s.VertexWords(7) != 0 {
		t.Fatal("untouched vertex holds sketch state")
	}
}

// TestConcurrentTracedDecode decodes a sketch of 12 subgraphs from two
// goroutines at once with obs enabled (decodetest.Concurrent).
func TestConcurrentTracedDecode(t *testing.T) {
	h := workload.MustHarary(24, 4)
	decodetest.Concurrent(t, func() decodetest.Decoder {
		s, err := New(practical(24, 2, 12, 17))
		if err != nil {
			t.Fatal(err)
		}
		if err := stream.Apply(stream.FromGraph(h), s); err != nil {
			t.Fatal(err)
		}
		return s
	})
}

func TestHypergraphEstimateDrop(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 1))
	h := workload.SharedHyperCommunities(rng, 7, 2, 3, 25)
	s, err := New(Params{N: h.N(), R: 3, K: 2, Subgraphs: 96, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Apply(stream.FromGraph(h), s); err != nil {
		t.Fatal(err)
	}
	got, err := s.EstimateConnectivityDrop(3)
	if err != nil {
		t.Fatal(err)
	}
	truth := graphalg.VertexConnectivityDrop(h, 3)
	if got > truth {
		t.Fatalf("drop estimate %d exceeds truth %d", got, truth)
	}
	if got < truth-1 {
		t.Fatalf("drop estimate %d far below truth %d", got, truth)
	}
}

func TestDisconnectsWitness(t *testing.T) {
	// Two triangles joined at vertex 2; removing it yields parts
	// {0,1} and {3,4}.
	h := graph.NewGraph(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}} {
		h.AddSimple(e[0], e[1])
	}
	s, err := New(practical(5, 1, 48, 17))
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Apply(stream.FromGraph(h), s); err != nil {
		t.Fatal(err)
	}
	disc, parts, err := s.DisconnectsWitness(map[int]bool{2: true})
	if err != nil {
		t.Fatal(err)
	}
	if !disc || len(parts) != 2 {
		t.Fatalf("disc=%v parts=%v", disc, parts)
	}
	if parts[0][0] != 0 || len(parts[0]) != 2 || parts[1][0] != 3 || len(parts[1]) != 2 {
		t.Fatalf("witness partition wrong: %v", parts)
	}
	// Non-separator: single part.
	disc, parts, err = s.DisconnectsWitness(map[int]bool{0: true})
	if err != nil {
		t.Fatal(err)
	}
	if disc || len(parts) != 1 {
		t.Fatalf("non-separator: disc=%v parts=%v", disc, parts)
	}
}
