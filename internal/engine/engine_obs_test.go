package engine_test

import (
	"errors"
	"sync"
	"testing"

	"graphsketch/internal/engine"
	"graphsketch/internal/graph"
	"graphsketch/internal/sketch"
)

// TestCloseConcurrentWithFailedBatch exercises the Close synchronization
// under -race: goroutines hammer UpdateBatch with a batch that fails in
// every shard while two other goroutines race Close against them and each
// other. No call may panic (send on closed channel) and every update must
// return an error — the shard failure before Close wins the race, ErrClosed
// after.
func TestCloseConcurrentWithFailedBatch(t *testing.T) {
	const n = 8
	sp, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(sp, engine.Options{Workers: 3})
	bad := []graph.WeightedEdge{{E: graph.Hyperedge{0, n + 5}, W: 1}}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				if err := eng.UpdateBatch(bad); err == nil {
					t.Error("failing batch returned nil error")
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			eng.Close()
		}()
	}
	close(start)
	wg.Wait()

	if err := eng.UpdateBatch(bad); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("UpdateBatch after Close: got %v, want ErrClosed", err)
	}
	if err := eng.Update(graph.MustEdge(0, 1), 1); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("Update after Close: got %v, want ErrClosed", err)
	}
	eng.Close() // still idempotent
}

// TestUpdateBatchZeroAllocs pins the reused dispatch scratch: with obs
// disabled, a steady-state UpdateBatch (warmed sampler levels, balanced
// insert/delete batch) must not allocate — neither the old per-call errs
// slice and WaitGroup, nor anything on the worker side.
func TestUpdateBatchZeroAllocs(t *testing.T) {
	const n = 16
	sp, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(sp, engine.Options{Workers: 4})
	defer eng.Close()

	var batch []graph.WeightedEdge
	for v := 1; v < n; v++ {
		e := graph.MustEdge(0, v)
		batch = append(batch,
			graph.WeightedEdge{E: e, W: 1},
			graph.WeightedEdge{E: e, W: -1})
	}
	// Warm up: materialize every lazily allocated sampler level and the
	// runtime's channel-wait scratch.
	for i := 0; i < 10; i++ {
		if err := eng.UpdateBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := eng.UpdateBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("UpdateBatch allocates %.1f objects per run; want 0", allocs)
	}
}
