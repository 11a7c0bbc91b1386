package plan

// Profile calibration tests: each profile's promise is checked empirically
// on ground-truth workloads. Lean must succeed in the large majority of
// trials; Balanced in essentially all.

import (
	"math/rand/v2"
	"testing"

	"graphsketch/internal/core/sparsify"
	"graphsketch/internal/core/vertexconn"
	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/stream"
	"graphsketch/internal/workload"
)

func TestProfileNames(t *testing.T) {
	if Lean.String() != "lean" || Balanced.String() != "balanced" || Theory.String() != "theory" {
		t.Fatal("profile names wrong")
	}
	if Profile(99).String() != "unknown" {
		t.Fatal("unknown profile name wrong")
	}
}

func TestProfileSizesOrdered(t *testing.T) {
	n, r, k := 32, 2, 3
	lean := VertexConnQuery(n, r, k, 1, Lean)
	bal := VertexConnQuery(n, r, k, 1, Balanced)
	theory := VertexConnQuery(n, r, k, 1, Theory)
	if !(lean.Subgraphs < bal.Subgraphs && bal.Subgraphs < theory.Subgraphs) {
		t.Fatalf("subgraph counts not ordered: %d, %d, %d",
			lean.Subgraphs, bal.Subgraphs, theory.Subgraphs)
	}
	if Sparsify(n, r, 0.5, 1, Lean).K >= Sparsify(n, r, 0.5, 1, Theory).K {
		t.Fatal("sparsify K not ordered")
	}
}

func TestQueryProfilesSucceed(t *testing.T) {
	n, k := 24, 3
	h := workload.MustHarary(n, k)
	rng := rand.New(rand.NewPCG(1, 1))
	for _, tc := range []struct {
		p       Profile
		minRate int // out of 10
	}{{Lean, 7}, {Balanced, 9}} {
		hits := 0
		for trial := 0; trial < 10; trial++ {
			s, err := vertexconn.New(VertexConnQuery(n, 2, k, uint64(trial), tc.p))
			if err != nil {
				t.Fatal(err)
			}
			if err := stream.Apply(stream.FromGraph(h), s); err != nil {
				t.Fatal(err)
			}
			// A random non-separator set must be passed.
			set := map[int]bool{}
			for len(set) < k {
				set[rng.IntN(n)] = true
			}
			// Neighbour sets are separators; skip those rare draws by
			// checking ground truth.
			got, err := s.Disconnects(set)
			if err != nil {
				t.Fatal(err)
			}
			want := groundTruthDisconnects(h, set)
			if got == want {
				hits++
			}
		}
		if hits < tc.minRate {
			t.Fatalf("%v profile: %d/10 correct, want >= %d", tc.p, hits, tc.minRate)
		}
	}
}

func groundTruthDisconnects(h *graph.Hypergraph, set map[int]bool) bool {
	return graphalg.DisconnectsQueryMode(h, set, graph.DropIncident)
}

func TestEstimateProfilesSucceed(t *testing.T) {
	n, k := 20, 3
	h := workload.MustHarary(n, k)
	for _, tc := range []struct {
		p       Profile
		minRate int
	}{{Lean, 6}, {Balanced, 9}} {
		hits := 0
		for trial := 0; trial < 10; trial++ {
			s, err := vertexconn.New(VertexConnEstimate(n, 2, k, 1.0, uint64(trial), tc.p))
			if err != nil {
				t.Fatal(err)
			}
			if err := stream.Apply(stream.FromGraph(h), s); err != nil {
				t.Fatal(err)
			}
			got, err := s.EstimateConnectivity(int64(k))
			if err != nil {
				t.Fatal(err)
			}
			if got == int64(k) {
				hits++
			}
		}
		if hits < tc.minRate {
			t.Fatalf("%v estimate profile: %d/10 exact, want >= %d", tc.p, hits, tc.minRate)
		}
	}
}

func TestSparsifyProfiles(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	n := 14
	h := workload.ErdosRenyi(rng, n, 0.7)
	for _, p := range []Profile{Lean, Balanced} {
		s, err := sparsify.New(Sparsify(n, 2, 0.5, 3, p))
		if err != nil {
			t.Fatal(err)
		}
		if err := stream.Apply(stream.FromGraph(h), s); err != nil {
			t.Fatal(err)
		}
		sp, err := s.Decode(nil)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		for _, e := range sp.Edges() {
			if !h.Has(e) {
				t.Fatalf("%v: fabricated edge", p)
			}
		}
	}
}

func TestTheoryProfileRunsSmall(t *testing.T) {
	// The Theory profile is big but must actually work at tiny n.
	n, k := 12, 2
	h := workload.MustHarary(n, k)
	s, err := vertexconn.New(VertexConnQuery(n, 2, k, 5, Theory))
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Apply(stream.FromGraph(h), s); err != nil {
		t.Fatal(err)
	}
	got, err := s.Disconnects(map[int]bool{0: true, 5: true})
	if err != nil {
		t.Fatal(err)
	}
	_ = got // value depends on the graph; the point is the decode succeeds
}
