package engine_test

import (
	"math/rand/v2"
	"sync"
	"testing"

	"graphsketch"
	"graphsketch/internal/core/edgeconn"
	"graphsketch/internal/core/vertexconn"
	"graphsketch/internal/engine"
	"graphsketch/internal/graph"
	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/testutil/frametest"
	"graphsketch/internal/workload"
)

// testStream builds the e1-style workload: a Harary graph streamed with
// Erdős–Rényi churn (inserted then deleted), as both a stream and a batch.
func testStream(n, k int, seed uint64) (stream.Stream, []graph.WeightedEdge) {
	rng := rand.New(rand.NewPCG(seed, 1))
	final := workload.MustHarary(n, k)
	churn := workload.ErdosRenyi(rng, n, 0.3)
	st := stream.WithChurn(final, churn, rng)
	batch := make([]graph.WeightedEdge, len(st))
	for i, u := range st {
		batch[i] = graph.WeightedEdge{E: u.Edge, W: int64(u.Op)}
	}
	return st, batch
}

// TestParallelSerialEquivalence checks the engine's core determinism claim:
// for every worker count, ingesting through the sharded worker pool leaves
// the sketch byte-identical to serial ingestion with the same seed.
func TestParallelSerialEquivalence(t *testing.T) {
	const n, seed = 24, 7
	st, _ := testStream(n, 3, seed)

	build := func() []graphsketch.Sharded {
		sp, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		sk, err := sketch.NewSkeletonSketch(sketch.SkeletonParams{N: n, K: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		vc, err := vertexconn.New(vertexconn.Params{N: n, K: 2, Subgraphs: 16, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return []graphsketch.Sharded{sp, sk, vc}
	}

	serial := build()
	for _, s := range serial {
		if err := stream.Apply(st, s); err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{1, 2, 3, 5, 32} {
		parallel := build()
		for i, s := range parallel {
			eng := engine.New(s, engine.Options{Workers: workers})
			if err := eng.Consume(st, 64); err != nil {
				t.Fatalf("workers=%d sketch %d: %v", workers, i, err)
			}
			eng.Close()
			if !frametest.Equal(t, serial[i], s) {
				t.Errorf("workers=%d sketch %d: parallel state differs from serial", workers, i)
			}
		}
	}
}

// TestConcurrentUpdateBatch hammers one engine from many goroutines. The
// engine serializes nothing across calls, but sketch updates are exact field
// additions, so the final state must still equal serial ingestion of the
// same multiset of updates.
func TestConcurrentUpdateBatch(t *testing.T) {
	const n, seed = 20, 11
	st, batch := testStream(n, 3, seed)

	serial := mustSkeleton(sketch.SkeletonParams{N: n, K: 3, Seed: seed})
	if err := stream.Apply(st, serial); err != nil {
		t.Fatal(err)
	}

	par := mustSkeleton(sketch.SkeletonParams{N: n, K: 3, Seed: seed})
	eng := engine.New(par, engine.Options{Workers: 4})
	defer eng.Close()

	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		lo := g * len(batch) / goroutines
		hi := (g + 1) * len(batch) / goroutines
		wg.Add(1)
		go func(chunk []graph.WeightedEdge) {
			defer wg.Done()
			for len(chunk) > 0 {
				sz := min(7, len(chunk))
				if err := eng.UpdateBatch(chunk[:sz]); err != nil {
					t.Error(err)
					return
				}
				chunk = chunk[sz:]
			}
		}(batch[lo:hi])
	}
	wg.Wait()

	if !frametest.Equal(t, serial, par) {
		t.Fatal("concurrent UpdateBatch state differs from serial ingestion")
	}
}

// TestEngineSingleUpdateAndErrors covers the Update shim and error paths.
func TestEngineSingleUpdateAndErrors(t *testing.T) {
	const n = 8
	sp, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(sp, engine.Options{Workers: 3})
	defer eng.Close()

	if err := eng.Update(graph.MustEdge(0, 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := eng.UpdateBatch(nil); err != nil {
		t.Fatal(err)
	}
	// Out-of-range vertex: the per-edge Encode fails in every shard and the
	// engine must surface it.
	bad := []graph.WeightedEdge{{E: graph.Hyperedge{0, n + 5}, W: 1}}
	if err := eng.UpdateBatch(bad); err == nil {
		t.Fatal("expected an error for an out-of-range vertex")
	}

	// Worker count is capped at the vertex count and floored at 1.
	capped := engine.New(sp, engine.Options{Workers: 100})
	defer capped.Close()
	if w := capped.Workers(); w > n {
		t.Fatalf("workers = %d, want <= n = %d", w, n)
	}
}

// TestEngineIsDropInSink checks Consume against stream.Apply on an
// edge-connectivity sketch, including the decoded answer.
func TestEngineIsDropInSink(t *testing.T) {
	const n, seed = 16, 5
	st, _ := testStream(n, 4, seed)

	serial := mustSkeleton(sketch.SkeletonParams{N: n, K: 4, Seed: seed})
	if err := stream.Apply(st, serial); err != nil {
		t.Fatal(err)
	}
	par := mustSkeleton(sketch.SkeletonParams{N: n, K: 4, Seed: seed})
	eng := engine.New(par, engine.Options{})
	defer eng.Close()
	if err := eng.Consume(st, 0); err != nil {
		t.Fatal(err)
	}

	connectivity := func(s *sketch.SkeletonSketch) (int64, error) {
		skel, err := s.Decode(nil)
		if err != nil {
			return 0, err
		}
		lambda, _, err := edgeconn.Connectivity(skel, s.K())
		return lambda, err
	}
	wantL, errS := connectivity(serial)
	gotL, errP := connectivity(par)
	if errS != nil || errP != nil {
		t.Fatalf("decode errors: serial %v, parallel %v", errS, errP)
	}
	if gotL != wantL {
		t.Fatalf("edge connectivity: parallel %d, serial %d", gotL, wantL)
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
