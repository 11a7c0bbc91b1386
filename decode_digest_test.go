package graphsketch_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"graphsketch/internal/core/vertexconn"
	"graphsketch/internal/graph"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/hybrid"
	"graphsketch/internal/sketch"
	"graphsketch/internal/workload"
)

// edgeDigest is the SHA-256 of h's edges in key order, one per line.
func edgeDigest(h *graph.Hypergraph) string {
	sum := sha256.New()
	for _, e := range h.Edges() {
		fmt.Fprintln(sum, e)
	}
	return fmt.Sprintf("%x", sum.Sum(nil))
}

// TestDecodeDigests pins the exact decoded edge set of four fixed-seed
// sketches by SHA-256, as TestCheckpointFrameDigests pins frame bytes: the
// Boruvka process's group and merge order decide which spanning edges a
// decode returns, so a change to the decode machinery that reorders either
// changes a digest even when every answer stays correct. The digests were
// recorded before the Boruvka decode summed component cuts into reused
// scratch.
func TestDecodeDigests(t *testing.T) {
	harary := workload.MustHarary(64, 8)
	cases := []struct {
		name   string
		decode func(t *testing.T) (*graph.Hypergraph, error)
		want   string
	}{
		{"spanning-harary-8-64", func(t *testing.T) (*graph.Hypergraph, error) {
			s := sketch.NewSpanning(3, harary.Domain(), sketch.SpanningConfig{})
			if err := s.UpdateGraph(harary, 1); err != nil {
				t.Fatal(err)
			}
			return s.Decode(nil)
		}, "8e497041953aad2a3cd985ea6c71b7a242187a9c5184c2aef2f0f63bf9624abd"},
		{"skeleton-k4-harary-8-64", func(t *testing.T) (*graph.Hypergraph, error) {
			s := mustSkeleton(sketch.SkeletonParams{N: harary.N(), R: harary.Domain().R(), K: 4, Seed: 3})
			if err := s.UpdateGraph(harary, 1); err != nil {
				t.Fatal(err)
			}
			return s.Decode(nil)
		}, "741104e33fb3d68a0e1c629f0c3b70570528200bffb2e15d6378298458fbf429"},
		{"vertexconn-dense-n64", func(t *testing.T) (*graph.Hypergraph, error) {
			load, cycle := denseChurn(1)
			s, err := vertexconn.New(vertexconn.Params{N: 64, K: 3, Subgraphs: 48, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range append([][]graph.WeightedEdge{load}, cycle[:8]...) {
				if err := s.UpdateBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
			return s.Decode(nil)
		}, "b30c3491e36d0679163fb911a7739f6a245150ad66bd99047e78a96236e3d0bb"},
		{"hybrid-b8-powerlaw-n4096", func(t *testing.T) (*graph.Hypergraph, error) {
			const n = 4096
			inner, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			h, err := hybrid.New(inner, 8)
			if err != nil {
				t.Fatal(err)
			}
			base := workload.SparsePowerLaw(hashutil.NewRand(1, 0x687962), n, 3, 2.5)
			if err := h.UpdateBatch(base.WeightedEdges()); err != nil {
				t.Fatal(err)
			}
			if s := h.SpilledCount(); s < 2 {
				t.Fatalf("hybrid spilled %d vertices; want several, so Boruvka samples", s)
			}
			return h.Decode(nil)
		}, "207d04e107adfe048eb00af1329502621374034781c60a144d5fd8c6b6e5ab15"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := tc.decode(t)
			if err != nil {
				t.Fatal(err)
			}
			if got := edgeDigest(f); got != tc.want {
				t.Errorf("decoded %d edges with digest %s; want %s", f.EdgeCount(), got, tc.want)
			}
		})
	}
}

// mustSkeleton is sketch.NewSkeletonSketch for params the test knows are
// valid.
func mustSkeleton(p sketch.SkeletonParams) *sketch.SkeletonSketch {
	s, err := sketch.NewSkeletonSketch(p)
	if err != nil {
		panic(err)
	}
	return s
}
