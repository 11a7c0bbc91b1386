// End-to-end integration tests: full pipelines crossing every module
// boundary — workload generation → dynamic stream with churn → sketches →
// decode → offline ground truth. These are the tests that would catch a
// seam mismatch no package-local test sees.
package graphsketch_test

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"graphsketch/internal/commsim"
	"graphsketch/internal/core/edgeconn"
	"graphsketch/internal/core/reconstruct"
	"graphsketch/internal/core/sparsify"
	"graphsketch/internal/core/vertexconn"
	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/workload"
)

// TestFullPipelineAllSketches streams one churned workload through every
// core sketch simultaneously (the way a real deployment would share one
// pass) and validates each decode against offline ground truth.
func TestFullPipelineAllSketches(t *testing.T) {
	rng := rand.New(rand.NewPCG(2026, 7))
	n := 16
	final := workload.MustHarary(n, 3)
	churn := workload.ErdosRenyi(rng, n, 0.4)
	st := stream.WithChurn(final, churn, rng)

	vc, err := vertexconn.New(vertexconn.Params{N: n, K: 3, Subgraphs: 160, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ec := mustSkeleton(sketch.SkeletonParams{N: n, R: final.Domain().R(), K: 5, Seed: 2})
	sp, err := sparsify.New(sparsify.Params{N: n, K: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	conn := sketch.NewSpanning(4, final.Domain(), sketch.SpanningConfig{})

	for _, sink := range []stream.Sink{vc, ec, sp, conn} {
		if err := stream.Apply(st, sink); err != nil {
			t.Fatal(err)
		}
	}

	// Vertex connectivity: Harary ground truth is exact.
	kappa, err := vc.EstimateConnectivity(3)
	if err != nil {
		t.Fatal(err)
	}
	if kappa != 3 {
		t.Errorf("κ estimate = %d, want 3", kappa)
	}

	// Edge connectivity.
	lambdaTrue, _, err := graphalg.GlobalMinCutAll(final)
	if err != nil {
		t.Fatal(err)
	}
	skel, err := ec.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	lambdaHat, _, err := edgeconn.Connectivity(skel, ec.K())
	if err != nil {
		t.Fatal(err)
	}
	wantLambda := lambdaTrue
	if wantLambda > 5 {
		wantLambda = 5
	}
	if lambdaHat != wantLambda {
		t.Errorf("λ estimate = %d, want %d", lambdaHat, wantLambda)
	}

	// Connectivity.
	connected, err := conn.Connected()
	if err != nil {
		t.Fatal(err)
	}
	if !connected {
		t.Error("connected graph decoded as disconnected")
	}

	// Sparsifier: subgraph of final, bounded cut error on sampled cuts.
	spg, err := sp.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range spg.Edges() {
		if !final.Has(e) {
			t.Errorf("sparsifier edge %v not in final graph", e)
		}
	}
	for trial := 0; trial < 500; trial++ {
		mask := rng.Uint64()
		inS := func(v int) bool { return mask&(1<<uint(v)) != 0 }
		o, g := final.CutWeight(inS), spg.CutWeight(inS)
		if o == 0 && g != 0 {
			t.Fatalf("sparsifier invents cut weight")
		}
		if o > 0 {
			ratio := float64(g) / float64(o)
			if ratio < 0.3 || ratio > 1.9 {
				t.Fatalf("cut ratio %.2f out of range (o=%d g=%d)", ratio, o, g)
			}
		}
	}
}

// TestReconstructionAgainstGroundTruthFamilies reconstructs cut-degenerate
// families end to end and cross-checks light_k against both offline
// computations (recursive definition and strength decomposition).
func TestReconstructionAgainstGroundTruthFamilies(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	families := []struct {
		name string
		g    *graph.Hypergraph
		d    int
	}{
		{"paper example", workload.PaperExample(), 2},
		{"clique tree", workload.CliqueTree(rng, 4, 4), 3},
		{"grid 3x4", workload.Grid(3, 4), 2},
	}
	for _, fam := range families {
		if got := graphalg.CutDegeneracy(fam.g); got > int64(fam.d) {
			t.Fatalf("%s: cut-degeneracy %d exceeds expected %d", fam.name, got, fam.d)
		}
		s := mustSkeleton(sketch.SkeletonParams{N: fam.g.N(), R: fam.g.Domain().R(), K: fam.d + 1, Seed: 7})
		churn := workload.ErdosRenyi(rng, fam.g.N(), 0.3)
		if err := stream.Apply(stream.WithChurn(fam.g, churn, rng), s); err != nil {
			t.Fatal(err)
		}
		got, err := reconstruct.Reconstruct(s)
		if err != nil {
			t.Fatalf("%s: %v", fam.name, err)
		}
		if !got.Equal(fam.g) {
			t.Fatalf("%s: reconstruction differs", fam.name)
		}
	}
}

// TestStreamFileToSketchPipeline exercises the text serialization the CLI
// tools use, end to end through a sketch.
func TestStreamFileToSketchPipeline(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	final := workload.ErdosRenyi(rng, 12, 0.4)
	churn := workload.ErdosRenyi(rng, 12, 0.4)
	st := stream.WithChurn(final, churn, rng)

	var buf bytes.Buffer
	if err := stream.WriteText(&buf, st); err != nil {
		t.Fatal(err)
	}
	back, err := stream.ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := sketch.NewSpanning(8, final.Domain(), sketch.SpanningConfig{})
	if err := stream.Apply(back, s); err != nil {
		t.Fatal(err)
	}
	f, err := s.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	da, db := graphalg.ComponentsOf(final), graphalg.ComponentsOf(f)
	for u := 0; u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			if da.Same(u, v) != db.Same(u, v) {
				t.Fatal("file round-trip pipeline lost connectivity information")
			}
		}
	}
}

// TestDistributedMatchesStreaming checks the two deployment modes agree:
// the same graph processed (a) as a single-machine stream and (b) as a
// simultaneous-communication protocol decodes to identical results.
func TestDistributedMatchesStreaming(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	h := workload.PreferentialAttachment(rng, 24, 2)
	dom := h.Domain()
	cfg := sketch.SpanningConfig{}
	const seed = 44

	single := sketch.NewSpanning(seed, dom, cfg)
	if err := single.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	referee := sketch.NewSpanning(seed, dom, cfg)
	if _, err := commsim.Run(h, func() commsim.Protocol { return sketch.NewSpanning(seed, dom, cfg) }, referee); err != nil {
		t.Fatal(err)
	}
	fa, errA := single.Decode(nil)
	fb, errB := referee.Decode(nil)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !fa.Equal(fb) {
		t.Fatal("distributed and streaming decodes differ")
	}
}
