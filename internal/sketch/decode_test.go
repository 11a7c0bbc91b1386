package sketch_test

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"graphsketch/internal/engine"
	"graphsketch/internal/graph"
	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/testutil/decodetest"
	"graphsketch/internal/workload"
)

// serialSkeleton is the reference peel Decode must reproduce: one layer at
// a time on the calling goroutine, each layer cloned and the forests
// decoded before it subtracted by linearity.
func serialSkeleton(sk *sketch.SkeletonSketch) (*graph.Hypergraph, error) {
	dom := sk.Domain()
	out := graph.MustHypergraph(dom.N(), dom.R())
	var forests []*graph.Hypergraph
	for i, layer := range sk.Layers() {
		work := layer.Clone()
		for _, f := range forests {
			if err := work.UpdateGraph(f, -1); err != nil {
				return nil, err
			}
		}
		f, err := work.Decode(nil)
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
		forests = append(forests, f)
		for _, e := range f.Edges() {
			out.MustAddEdge(e, 1)
		}
	}
	return out, nil
}

// churnBatch is a Harary graph streamed with Erdős–Rényi churn (inserted
// then deleted), as one batch of weighted updates.
func churnBatch(n, k int, seed uint64) []graph.WeightedEdge {
	rng := rand.New(rand.NewPCG(seed, 1))
	st := stream.WithChurn(workload.MustHarary(n, k), workload.ErdosRenyi(rng, n, 0.3), rng)
	batch := make([]graph.WeightedEdge, len(st))
	for i, u := range st {
		batch[i] = graph.WeightedEdge{E: u.Edge, W: int64(u.Op)}
	}
	return batch
}

// TestDecodeSkeletonMatchesSerial checks that Decode reproduces the serial
// reference peel exactly, at GOMAXPROCS 1 and 4, at several prefixes of a
// stream that the engine ingests from concurrent goroutines between
// decodes.
func TestDecodeSkeletonMatchesSerial(t *testing.T) {
	const n, k, seed = 18, 4, 3
	batch := churnBatch(n, k, seed)

	serial := mustSkeleton(sketch.SkeletonParams{N: n, K: k, Seed: seed})
	par := mustSkeleton(sketch.SkeletonParams{N: n, K: k, Seed: seed})
	eng := engine.New(par, engine.Options{Workers: 3})
	defer eng.Close()

	chunk := len(batch)/3 + 1
	compared := 0
	for lo := 0; lo < len(batch); lo += chunk {
		hi := min(lo+chunk, len(batch))
		if err := serial.UpdateBatch(batch[lo:hi]); err != nil {
			t.Fatal(err)
		}
		// Three goroutines feed the engine a third of the chunk each.
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(part []graph.WeightedEdge) {
				defer wg.Done()
				for len(part) > 0 {
					sz := min(7, len(part))
					if err := eng.UpdateBatch(part[:sz]); err != nil {
						t.Error(err)
						return
					}
					part = part[sz:]
				}
			}(batch[lo+g*(hi-lo)/3 : lo+(g+1)*(hi-lo)/3])
		}
		wg.Wait()

		want, errS := serialSkeleton(serial)
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			got, errP := par.Decode(nil)
			runtime.GOMAXPROCS(prev)
			if (errS == nil) != (errP == nil) {
				t.Fatalf("prefix %d, GOMAXPROCS=%d: serial err %v, Decode err %v", hi, procs, errS, errP)
			}
			if errS == nil && !got.Equal(want) {
				t.Fatalf("prefix %d, GOMAXPROCS=%d: Decode differs from the serial peel", hi, procs)
			}
			if errS == nil {
				compared++
			}
		}
	}
	if compared == 0 {
		t.Fatal("no prefix decoded; nothing was compared")
	}
}

// TestConcurrentTracedSkeletonDecode decodes a k = 4 skeleton from two
// goroutines at once with obs enabled (decodetest.Concurrent).
func TestConcurrentTracedSkeletonDecode(t *testing.T) {
	const n, k, seed = 32, 4, 5
	batch := churnBatch(n, k, seed)
	decodetest.Concurrent(t, func() decodetest.Decoder {
		sk := mustSkeleton(sketch.SkeletonParams{N: n, K: k, Seed: seed})
		if err := sk.UpdateBatch(batch); err != nil {
			t.Fatal(err)
		}
		return sk
	})
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
