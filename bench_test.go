// Benchmarks, one per experiment (E1–E10 in DESIGN.md): each exercises the
// full pipeline a theorem's experiment runs — stream ingestion, decode, and
// verification — so `go test -bench=.` both times the system and re-checks
// the claims at benchmark scale. The printed tables come from
// cmd/experiments; these benches are the machine-readable counterpart.
package graphsketch_test

import (
	"bytes"
	"io"
	"math/rand/v2"
	"net"
	"testing"

	"graphsketch"
	"graphsketch/internal/codec"
	"graphsketch/internal/commsim"
	"graphsketch/internal/core/edgeconn"
	"graphsketch/internal/core/reconstruct"
	"graphsketch/internal/core/sparsify"
	"graphsketch/internal/core/vertexconn"
	"graphsketch/internal/engine"
	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/hybrid"
	"graphsketch/internal/obs"
	"graphsketch/internal/oracle"
	"graphsketch/internal/shardplane"
	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/workload"
)

// BenchmarkE1VertexConnQuery times the Theorem 4 pipeline: stream a
// k-connected graph with churn, build H, answer a separator query.
func BenchmarkE1VertexConnQuery(b *testing.B) {
	n, k := 24, 3
	h := workload.MustHarary(n, k)
	rng := rand.New(rand.NewPCG(1, 1))
	st := stream.WithChurn(h, workload.ErdosRenyi(rng, n, 0.3), rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := vertexconn.New(vertexconn.Params{N: n, K: k, Subgraphs: 48, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if err := stream.Apply(st, s); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Disconnects(map[int]bool{1: true, 3: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2IndexReduction times Bob's side of the Theorem 5 INDEX
// protocol: completing the stream and decoding one bit.
func BenchmarkE2IndexReduction(b *testing.B) {
	k, nR := 2, 16
	rng := rand.New(rand.NewPCG(2, 2))
	bits := make([][]bool, k+1)
	for i := range bits {
		bits[i] = make([]bool, nR)
		for j := range bits[i] {
			bits[i][j] = rng.IntN(2) == 1
		}
	}
	alice := workload.IndexBipartite(func(i, j int) bool { return bits[i][j] }, k, nR)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := vertexconn.New(vertexconn.Params{N: alice.N(), K: k, Subgraphs: 32, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if err := stream.Apply(stream.FromGraph(alice), s); err != nil {
			b.Fatal(err)
		}
		for j := 1; j < nR; j++ {
			if err := s.Update(graph.MustEdge(k+1+j-1, k+1+j), 1); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Disconnects(map[int]bool{0: true, 1: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3VertexConnEstimate times the Theorem 8 estimator end to end.
func BenchmarkE3VertexConnEstimate(b *testing.B) {
	n, k := 24, 2
	h := workload.MustHarary(n, 2*k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := vertexconn.New(vertexconn.Params{N: n, K: k, Subgraphs: 64, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if err := stream.Apply(stream.FromGraph(h), s); err != nil {
			b.Fatal(err)
		}
		got, err := s.EstimateConnectivity(int64(k))
		if err != nil {
			b.Fatal(err)
		}
		if got < int64(k) {
			b.Fatalf("estimate %d below k=%d on a %d-connected graph", got, k, 2*k)
		}
	}
}

// BenchmarkE4HypergraphSpanning times the Theorem 13 hypergraph
// connectivity sketch under deletion churn.
func BenchmarkE4HypergraphSpanning(b *testing.B) {
	rng := rand.New(rand.NewPCG(4, 4))
	n := 32
	final := workload.UniformHypergraph(rng, n, 3, 3*n)
	st := stream.WithChurn(final, workload.UniformHypergraph(rng, n, 3, 3*n), rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sketch.NewSpanning(uint64(i), final.Domain(), sketch.SpanningConfig{})
		if err := stream.Apply(st, s); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Decode(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5Skeleton times Theorem 14 skeleton construction and decode.
func BenchmarkE5Skeleton(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 5))
	n, k := 16, 3
	h := workload.ErdosRenyi(rng, n, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk := mustSkeleton(sketch.SkeletonParams{N: h.N(), R: h.Domain().R(), K: k, Seed: uint64(i)})
		if err := sk.UpdateGraph(h, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := sk.Decode(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6Reconstruct times Theorem 15 reconstruction of the paper's
// Lemma 10 example.
func BenchmarkE6Reconstruct(b *testing.B) {
	h := workload.PaperExample()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := mustSkeleton(sketch.SkeletonParams{N: h.N(), R: h.Domain().R(), K: 2 + 1, Seed: uint64(i)})
		if err := s.UpdateGraph(h, 1); err != nil {
			b.Fatal(err)
		}
		got, err := reconstruct.Reconstruct(s)
		if err != nil {
			b.Fatal(err)
		}
		if !got.Equal(h) {
			b.Fatal("reconstruction differs")
		}
	}
}

// BenchmarkE7Sparsifier times the Theorem 19/20 sparsifier pipeline.
func BenchmarkE7Sparsifier(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 7))
	n := 14
	h := workload.ErdosRenyi(rng, n, 0.8)
	st := stream.FromGraph(h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sparsify.New(sparsify.Params{N: n, K: 6, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if err := stream.Apply(st, s); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Decode(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8InsertOnlyBaseline times the Eppstein et al. filter on the
// adversarial stream (the work is dominated by its per-insert flow checks —
// the cost the sketch avoids).
func BenchmarkE8InsertOnlyBaseline(b *testing.B) {
	n, k := 16, 3
	target := workload.MustHarary(n, k)
	st := stream.InsertDeleteInsert(workload.Complete(n), target)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := graphalg.NewEppsteinFilter(n, int64(k))
		for _, u := range st {
			var err error
			if u.Op == stream.Insert {
				_, err = f.Insert(u.Edge[0], u.Edge[1])
			} else {
				err = f.Delete(u.Edge[0], u.Edge[1])
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		_ = f.VertexConnectivity()
	}
}

// BenchmarkE9Communication times a full simultaneous-communication round:
// n players serialize shares, the referee merges and decodes.
func BenchmarkE9Communication(b *testing.B) {
	rng := rand.New(rand.NewPCG(9, 9))
	h := workload.ErdosRenyi(rng, 32, 0.2)
	dom := h.Domain()
	cfg := sketch.SpanningConfig{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := uint64(i)
		ref := sketch.NewSpanning(seed, dom, cfg)
		if _, err := commsim.Run(h, func() commsim.Protocol { return sketch.NewSpanning(seed, dom, cfg) }, ref); err != nil {
			b.Fatal(err)
		}
		if _, err := ref.Decode(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10Ablations times the (invalid) reused-sketch peeling loop that
// the Section 4.2 ablation studies.
func BenchmarkE10Ablations(b *testing.B) {
	h := workload.Complete(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := sketch.NewSpanning(uint64(i), h.Domain(), sketch.SpanningConfig{})
		if err := sp.UpdateGraph(h, 1); err != nil {
			b.Fatal(err)
		}
		for round := 0; round < 6; round++ {
			f, err := sp.Decode(nil)
			if err != nil || f.EdgeCount() == 0 {
				break
			}
			if err := sp.UpdateGraph(f, -1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE11Extensions times the E11 extension pipelines: edge
// connectivity from a skeleton sketch plus guess-and-double κ estimation.
func BenchmarkE11Extensions(b *testing.B) {
	h := workload.MustHarary(16, 4)
	for i := 0; i < b.N; i++ {
		ec := mustSkeleton(sketch.SkeletonParams{N: h.N(), R: h.Domain().R(), K: 6, Seed: uint64(i)})
		if err := ec.UpdateGraph(h, 1); err != nil {
			b.Fatal(err)
		}
		skel, err := ec.Decode(nil)
		if err != nil {
			b.Fatal(err)
		}
		lambda, _, err := edgeconn.Connectivity(skel, ec.K())
		if err != nil {
			b.Fatal(err)
		}
		if lambda != 4 {
			b.Fatalf("λ = %d, want 4", lambda)
		}
		est, err := vertexconn.NewEstimator(vertexconn.EstimatorParams{N: 16, KMax: 4, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if err := stream.Apply(stream.FromGraph(h), est); err != nil {
			b.Fatal(err)
		}
		if _, err := est.Estimate(); err != nil {
			b.Fatal(err)
		}
	}
}

// parallelWorkload builds the E1-style ingestion workload at benchmark
// scale: a k-connected Harary graph streamed with Erdős–Rényi churn,
// returned as one update batch.
func parallelWorkload(n, k int, seed uint64) []graph.WeightedEdge {
	rng := rand.New(rand.NewPCG(seed, 1))
	st := stream.WithChurn(workload.MustHarary(n, k), workload.ErdosRenyi(rng, n, 0.4), rng)
	batch := make([]graph.WeightedEdge, len(st))
	for i, u := range st {
		batch[i] = graph.WeightedEdge{E: u.Edge, W: int64(u.Op)}
	}
	return batch
}

// BenchmarkParallelIngest compares serial UpdateBatch against the sharded
// worker pool on the E1 vertex-connectivity sketch. With GOMAXPROCS >= 4 the
// parallel path is expected to be >= 2x the serial throughput: every edge
// update is a pair of independent per-endpoint sampler writes, so the vertex
// shards proceed without locks.
func BenchmarkParallelIngest(b *testing.B) {
	const n, k = 96, 3
	batch := parallelWorkload(n, k, 1)
	s, err := vertexconn.New(vertexconn.Params{N: n, K: k, Subgraphs: 48, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		b.SetBytes(int64(len(batch)))
		for i := 0; i < b.N; i++ {
			if err := s.UpdateBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		eng := engine.New(s, engine.Options{})
		defer eng.Close()
		b.SetBytes(int64(len(batch)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.UpdateBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Same path with metrics collection on but trace recording off
	// (SetTraceSampling(0), the enabled-but-unsampled mode): every batch
	// pays the clock reads, shard counters, and span histogram, while the
	// flight recorder stays out of the hot path. The acceptance bar is
	// <= 3% over the plain parallel sub-benchmark.
	b.Run("parallel-obs", func(b *testing.B) {
		obs.Enable()
		obs.SetTraceSampling(0)
		defer func() {
			obs.SetTraceSampling(1)
			obs.Disable()
		}()
		eng := engine.New(s, engine.Options{})
		defer eng.Close()
		b.SetBytes(int64(len(batch)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.UpdateBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// denseChurn builds gsbench vconn-dense's graph — a Harary H_{8,56} core
// with 512 random churn edges, 4 pendants joined to 3 core vertices and 4
// flicker vertices joined to 4 — as one bulk-load batch, and a cycle of
// 128-update churn batches over it. The first half of the cycle deletes 64
// live churn edges and inserts 64 fresh core edges per batch; the second
// half undoes the first in reverse, so the cycle can repeat forever while
// the sketch keeps the loaded graph's state size.
func denseChurn(seed uint64) (load []graph.WeightedEdge, cycle [][]graph.WeightedEdge) {
	const core, pendants, flickers, n = 56, 4, 4, 64
	const churnLive, half, batches = 512, 64, 16
	rng := rand.New(rand.NewPCG(seed, 7))
	live := graph.NewGraph(n)
	for _, e := range workload.MustHarary(core, 8).Edges() {
		live.MustAddEdge(e, 1)
	}
	attach := func(v, k int) {
		for added := 0; added < k; {
			if e := graph.MustEdge(v, rng.IntN(core)); !live.Has(e) {
				live.MustAddEdge(e, 1)
				added++
			}
		}
	}
	for v := core; v < core+pendants; v++ {
		attach(v, 3)
	}
	for v := core + pendants; v < n; v++ {
		attach(v, 4)
	}
	freshCore := func() graph.Hyperedge {
		for {
			u, v := rng.IntN(core), rng.IntN(core)
			if u == v {
				continue
			}
			if e := graph.MustEdge(u, v); !live.Has(e) {
				return e
			}
		}
	}
	var churn []graph.Hyperedge
	for len(churn) < churnLive {
		e := freshCore()
		live.MustAddEdge(e, 1)
		churn = append(churn, e)
	}
	load = live.WeightedEdges()
	for i := 0; i < batches; i++ {
		batch := make([]graph.WeightedEdge, 0, 2*half)
		rng.Shuffle(len(churn), func(i, j int) { churn[i], churn[j] = churn[j], churn[i] })
		for _, e := range churn[:half] {
			batch = append(batch, graph.WeightedEdge{E: e, W: -1})
			live.MustAddEdge(e, -1)
		}
		churn = churn[half:]
		for j := 0; j < half; j++ {
			e := freshCore()
			live.MustAddEdge(e, 1)
			batch = append(batch, graph.WeightedEdge{E: e, W: 1})
			churn = append(churn, e)
		}
		cycle = append(cycle, batch)
	}
	for i := batches - 1; i >= 0; i-- {
		fwd := cycle[i]
		undo := make([]graph.WeightedEdge, len(fwd))
		for j, we := range fwd {
			undo[len(fwd)-1-j] = graph.WeightedEdge{E: we.E, W: -we.W}
		}
		cycle = append(cycle, undo)
	}
	return load, cycle
}

// BenchmarkVertexConnIngest is the ingest rung at real state size: serial
// UpdateBatch of 128-update churn batches into a Theorem 4 sketch with
// gsbench vconn-dense's shape (n = 64, K = 3, 48 subgraphs) after its dense
// graph is loaded, so every sampler write lands in a sketch of the
// workload's size rather than in one hot sampler.
func BenchmarkVertexConnIngest(b *testing.B) {
	b.Run("dense-n64", func(b *testing.B) {
		load, cycle := denseChurn(1)
		s, err := vertexconn.New(vertexconn.Params{N: 64, K: 3, Subgraphs: 48, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.UpdateBatch(load); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.UpdateBatch(cycle[i%len(cycle)]); err != nil {
				b.Fatal(err)
			}
		}
		ups := float64(b.N) * float64(len(cycle[0]))
		b.ReportMetric(ups/b.Elapsed().Seconds(), "updates/s")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/ups, "ns/update")
	})
}

// BenchmarkVertexConnDecode is the BuildH rung under gsbench vconn-dense's
// answer_ms: a Theorem 4 sketch with the workload's shape (n = 64, K = 3,
// 48 subgraphs) after its dense churn, its cached H invalidated by a net-zero
// update pair before every Decode, so each iteration pays the 48 subgraph
// forest decodes and their union.
func BenchmarkVertexConnDecode(b *testing.B) {
	b.Run("dense-n64", func(b *testing.B) {
		load, cycle := denseChurn(1)
		s, err := vertexconn.New(vertexconn.Params{N: 64, K: 3, Subgraphs: 48, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range append([][]graph.WeightedEdge{load}, cycle[:len(cycle)/2]...) {
			if err := s.UpdateBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
		e := graph.MustEdge(0, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Update(e, 1); err != nil {
				b.Fatal(err)
			}
			if err := s.Update(e, -1); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Decode(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelDecode times the k-skeleton peel
// (sketch.SkeletonSketch.Decode, which prepares the next layer's clone
// beside the current layer's decode) on a k-skeleton of the E1 workload
// graph; run it with -cpu 1,2 to see the overlap.
func BenchmarkParallelDecode(b *testing.B) {
	const n, k = 64, 8
	h := workload.MustHarary(n, k)
	sk := mustSkeleton(sketch.SkeletonParams{N: h.N(), R: h.Domain().R(), K: k, Seed: 3})
	if err := sk.UpdateGraph(h, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Decode(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointWrite times emitting a framed checkpoint (params
// encoding, state serialization, CRC) to io.Discard: skeleton-n64 writes an
// ingested k-skeleton; vconn-n64 writes a Theorem 4 sketch with gsbench
// vconn-dense's shape (n = 64, K = 3, 48 subgraphs) after its dense churn,
// a ~48 MB frame — the rung under vconn-dense's checkpoint_ms; hybrid-n16384
// writes the hybrid BenchmarkCheckpointRead restores, the rung under
// hybrid-sparse's. B/op shows that the frame streams through a small
// buffer instead of being built whole.
func BenchmarkCheckpointWrite(b *testing.B) {
	const n, k = 64, 8
	h := workload.MustHarary(n, k)
	sk := mustSkeleton(sketch.SkeletonParams{N: h.N(), R: h.Domain().R(), K: k, Seed: 3})
	if err := sk.UpdateGraph(h, 1); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		s    io.WriterTo
	}{{"skeleton-n64", sk}, {"vconn-n64", denseVertexConn(b)}, {"hybrid-n16384", powerLawHybrid(b)}} {
		b.Run(bc.name, func(b *testing.B) {
			size, err := bc.s.WriteTo(io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bc.s.WriteTo(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// denseVertexConn builds a Theorem 4 sketch with gsbench vconn-dense's
// shape (n = 64, K = 3, 48 subgraphs) after its dense churn, whose
// checkpoint is a ~48 MB frame: the checkpoint rungs' vertexconn.
func denseVertexConn(tb testing.TB) *vertexconn.Sketch {
	tb.Helper()
	load, cycle := denseChurn(1)
	vc, err := vertexconn.New(vertexconn.Params{N: 64, K: 3, Subgraphs: 48, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	for _, batch := range append([][]graph.WeightedEdge{load}, cycle[:len(cycle)/2]...) {
		if err := vc.UpdateBatch(batch); err != nil {
			tb.Fatal(err)
		}
	}
	return vc
}

// BenchmarkCheckpointRead times the restart path: codec.Open reconstructs
// the sketch from the frame alone (header verification, params decode,
// construction, state merge), streaming it from a bytes.Reader as from a
// file. skeleton-n64 restores an ingested k-skeleton; empty-n16384
// restores an empty spanning sketch, the hybrid inner's common case, where
// every sampler stays absent and the cost is the construction itself;
// vconn-n64 restores BenchmarkCheckpointWrite's vertexconn, the rung under
// gsbench vconn-dense's restore_ms; hybrid-n16384 restores a budget-32
// hybrid over the power-law graph gsbench's hybrid-sparse workload starts
// from, which spills the hubs, the rung under hybrid-sparse's. B/op shows
// the frame streaming through a reused window instead of being copied
// whole first.
func BenchmarkCheckpointRead(b *testing.B) {
	const n, k = 64, 8
	h := workload.MustHarary(n, k)
	sk := mustSkeleton(sketch.SkeletonParams{N: h.N(), R: h.Domain().R(), K: k, Seed: 3})
	if err := sk.UpdateGraph(h, 1); err != nil {
		b.Fatal(err)
	}
	empty, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: 16384, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		s    graphsketch.Checkpointer
	}{{"skeleton-n64", sk}, {"empty-n16384", empty}, {"vconn-n64", denseVertexConn(b)}, {"hybrid-n16384", powerLawHybrid(b)}} {
		var buf bytes.Buffer
		if _, err := c.s.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
		frame := buf.Bytes()
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.Open(bytes.NewReader(frame)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// powerLawHybrid builds the budget-32 hybrid over the n = 16384 power-law
// graph gsbench's hybrid-sparse workload starts from: the checkpoint rungs'
// hybrid.
func powerLawHybrid(b *testing.B) *hybrid.Sketch {
	b.Helper()
	_, hy := sparseHybrid(b, 16384, 32)
	base := workload.SparsePowerLaw(hashutil.NewRand(1, 0x687962), 16384, 3, 2.5)
	if err := stream.Apply(stream.FromGraph(base), hy); err != nil {
		b.Fatal(err)
	}
	return hy
}

// BenchmarkNewSpanning times constructing an empty spanning sketch. With
// -benchmem it shows construction allocating per round, not per sampler.
func BenchmarkNewSpanning(b *testing.B) {
	b.Run("n16384", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: 16384, Seed: 3}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// sparseBatch builds the PR7 sparse workload: a power-law graph whose
// average degree (4) sits well below the hybrid's exact-buffer capacity
// (budget/2 = 16 entries), shuffled into an insert-only update batch.
func sparseBatch(n int, seed uint64) []graph.WeightedEdge {
	rng := rand.New(rand.NewPCG(seed, 0x5350))
	st := stream.Shuffled(stream.FromGraph(workload.SparsePowerLaw(rng, n, 4, 2.5)), rng)
	batch := make([]graph.WeightedEdge, len(st))
	for i, u := range st {
		batch[i] = graph.WeightedEdge{E: u.Edge, W: int64(u.Op)}
	}
	return batch
}

// sparseHybrid builds the hybrid-over-spanning sketch the sparse benchmarks
// measure against a pure spanning sketch of identical construction.
func sparseHybrid(b *testing.B, n, budget int) (*sketch.SpanningSketch, *hybrid.Sketch) {
	b.Helper()
	pure, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	inner, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	hy, err := hybrid.New(inner, budget)
	if err != nil {
		b.Fatal(err)
	}
	return pure, hy
}

// BenchmarkSparseIngest is the PR7 headline comparison: ingesting a sparse
// power-law stream into the pure spanning sketch versus the hybrid
// exact/sketch wrapper. Nearly every update lands in a small sorted buffer
// instead of fanning out across log n rounds of sampler rows, so the
// acceptance bar is >= 5x lower ns/op AND >= 5x fewer state words
// (reported as the custom 'state-words' unit, captured by benchjson).
func BenchmarkSparseIngest(b *testing.B) {
	const n, budget = 1024, 32
	batch := sparseBatch(n, 1)
	pure, hy := sparseHybrid(b, n, budget)
	b.Run("pure", func(b *testing.B) {
		b.SetBytes(int64(len(batch)))
		for i := 0; i < b.N; i++ {
			if err := pure.UpdateBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(pure.Words()-pure.SharedWords()), "state-words")
	})
	b.Run("hybrid", func(b *testing.B) {
		b.SetBytes(int64(len(batch)))
		for i := 0; i < b.N; i++ {
			if err := hy.UpdateBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(hy.StateWords()), "state-words")
	})
}

// BenchmarkSparseDecode compares spanning decode on the same sparse
// workload: the pure sketch draws samplers per Boruvka merge, while the
// hybrid contracts every edge its exact buffers know and samples only the
// components holding a spilled power-law hub. hybrid-n16384 decodes the
// gsbench hybrid-sparse workload's base graph (16384-vertex power law,
// average degree 3, budget 32 words), the size at which per-decode costs
// over all n vertices show.
func BenchmarkSparseDecode(b *testing.B) {
	const n, budget = 1024, 32
	batch := sparseBatch(n, 1)
	pure, hy := sparseHybrid(b, n, budget)
	if err := pure.UpdateBatch(batch); err != nil {
		b.Fatal(err)
	}
	if err := hy.UpdateBatch(batch); err != nil {
		b.Fatal(err)
	}
	b.Run("pure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pure.Decode(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hybrid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hy.Decode(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hybrid-n16384", func(b *testing.B) {
		const n = 16384
		inner, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		big, err := hybrid.New(inner, budget)
		if err != nil {
			b.Fatal(err)
		}
		base := workload.SparsePowerLaw(hashutil.NewRand(1, 0x687962), n, 3, 2.5)
		if err := big.UpdateBatch(base.WeightedEdges()); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := big.Decode(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSparseChurnIngest stresses the hybrid's worst case: churn waves
// that drive vertex degrees across the spill boundary, so a fraction of the
// stream pays both the buffer bookkeeping and the sketch forwarding.
func BenchmarkSparseChurnIngest(b *testing.B) {
	const n, budget = 1024, 32
	rng := rand.New(rand.NewPCG(3, 0x5351))
	st := workload.BoundaryChurnStream(rng, workload.SparsePowerLaw(rng, n, 4, 2.5), budget/2, 2)
	batch := make([]graph.WeightedEdge, len(st))
	for i, u := range st {
		batch[i] = graph.WeightedEdge{E: u.Edge, W: int64(u.Op)}
	}
	_, hy := sparseHybrid(b, n, budget)
	b.SetBytes(int64(len(batch)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := hy.UpdateBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(hy.SpilledCount()), "spilled-vertices")
}

// oracleBench streams the E1 workload into a vertex-connectivity sketch
// and wraps it in the query oracle; both oracle benchmarks share it so
// warm-vs-cold measures only the cache discipline.
func oracleBench(b *testing.B) *oracle.Oracle {
	b.Helper()
	n, k := 24, 3
	h := workload.MustHarary(n, k)
	rng := rand.New(rand.NewPCG(1, 1))
	st := stream.WithChurn(h, workload.ErdosRenyi(rng, n, 0.3), rng)
	s, err := vertexconn.New(vertexconn.Params{N: n, K: k, Subgraphs: 48, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	if err := stream.Apply(st, s); err != nil {
		b.Fatal(err)
	}
	return oracle.For(s)
}

// BenchmarkOracleConnectedWarm times Connected on a warm epoch cache: the
// priming query pays the one decode, every timed iteration is two flat
// component-array lookups. The PR6 acceptance bar is >= 100x over
// BenchmarkOracleDecodePerQuery.
func BenchmarkOracleConnectedWarm(b *testing.B) {
	orc := oracleBench(b)
	if _, err := orc.Connected(0, 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := orc.Connected(i%24, (i*7+1)%24); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOracleDecodePerQuery is the counterfactual the oracle replaces:
// a net-zero update pair before every query dirties the sketch (as any
// real mutation batch would), so each Connected pays the full H build
// decode — the per-query cost every caller paid before PR6.
func BenchmarkOracleDecodePerQuery(b *testing.B) {
	orc := oracleBench(b)
	e := graph.MustEdge(0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := orc.Update(e, 1); err != nil {
			b.Fatal(err)
		}
		if err := orc.Update(e, -1); err != nil {
			b.Fatal(err)
		}
		if _, err := orc.Connected(i%24, (i*7+1)%24); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterIngest prices the shard-plane transports against each
// other on the same spanning-sketch churn workload: LocalTransport pays a
// channel hop per shard per batch, the 3-shard TCP loopback cluster pays a
// codec frame, a syscall round trip, and an ack per shard per batch. The
// resulting states are byte-identical either way (the three-way
// equivalence test pins that); this benchmark pins what the wire costs.
func BenchmarkClusterIngest(b *testing.B) {
	const n = 96
	batch := parallelWorkload(n, 3, 1)

	b.Run("local", func(b *testing.B) {
		s, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		eng := engine.NewWithTransport(shardplane.NewLocal(s, shardplane.Options{}))
		defer eng.Close()
		b.SetBytes(int64(len(batch)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.UpdateBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("tcp", func(b *testing.B) {
		proto, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		var addrs []string
		for i := 0; i < 3; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			srv := shardplane.NewServer(ln)
			go srv.Serve()
			defer srv.Close()
			addrs = append(addrs, ln.Addr().String())
		}
		tr, err := shardplane.DialTCP(proto, addrs, shardplane.TCPOptions{})
		if err != nil {
			b.Fatal(err)
		}
		eng := engine.NewWithTransport(tr)
		defer eng.Close()
		b.SetBytes(int64(len(batch)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.UpdateBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}
