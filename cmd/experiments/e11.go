package main

import (
	"os"

	"graphsketch/internal/bench"
	"graphsketch/internal/core/edgeconn"
	"graphsketch/internal/core/vertexconn"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/sketch"
	"graphsketch/internal/stream"
	"graphsketch/internal/workload"
)

// runE11 evaluates the library's two extensions beyond the paper's stated
// theorems, both direct corollaries of its machinery:
//
//   - edge connectivity from k-skeletons (Theorem 14 applied to the global
//     min cut — the hypergraph counterpart of what the paper calls graph
//     sketching's "main success story"), including the paper's Section 1.1
//     motivating gap λ ≫ κ on shared-separator graphs;
//   - guess-and-double vertex-connectivity estimation (removing Theorem 8's
//     "k is an upper bound" precondition) at an O(log k) space factor.
func runE11(cfg Config, out *os.File) error {
	t1 := bench.NewTable("E11a — extension: edge connectivity via k-skeletons (λ vs κ)",
		"graph", "n", "true λ", "sketch λ̂", "true κ", "sketch κ̂", "λ sketch", "κ sketch")
	t1.Note = "the paper's Section 1.1 point: λ bounds κ from above but can be far larger;\n" +
		"both quantities from one pass over the same dynamic stream."

	type inst struct {
		name string
		g    *hyper
		kap  int
	}
	sc, err := workload.SharedCliques(7, 7, 2)
	if err != nil {
		return err
	}
	insts := []inst{
		{"SharedCliques(7,7,2)", sc, 2},
		{"Harary H_{4,16}", workload.MustHarary(16, 4), 4},
		{"Cycle C_16", workload.Cycle(16), 2},
	}
	for _, in := range insts {
		rng := hashutil.NewRand(cfg.Seed, 11)
		churn := workload.ErdosRenyi(rng, in.g.N(), 0.3)
		st := stream.WithChurn(in.g, churn, rng)

		ec, err := sketch.NewSkeletonSketch(sketch.SkeletonParams{
			N: in.g.N(), R: in.g.Domain().R(), K: 8, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		if err := stream.Apply(st, ec); err != nil {
			return err
		}
		skel, err := ec.Decode(nil)
		if err != nil {
			return err
		}
		lambdaHat, _, err := edgeconn.Connectivity(skel, ec.K())
		if err != nil {
			return err
		}
		vc, err := vertexconn.New(vertexconn.Params{
			N: in.g.N(), K: in.kap, Subgraphs: 128, Seed: cfg.Seed ^ 0xe11})
		if err != nil {
			return err
		}
		if err := stream.Apply(st, vc); err != nil {
			return err
		}
		kappaHat, err := vc.EstimateConnectivity(int64(in.kap))
		if err != nil {
			return err
		}
		trueLambda, _, err := graphalg.GlobalMinCutAll(in.g)
		if err != nil {
			return err
		}
		trueKappa := graphalg.VertexConnectivity(in.g, 8)
		t1.AddRow(in.name, in.g.N(), trueLambda, lambdaHat, trueKappa, kappaHat,
			bench.FmtBytes(ec.Words()*8), bench.FmtBytes(vc.Words()*8))
	}
	emitTable(t1, out)

	t2 := bench.NewTable("E11b — extension: guess-and-double κ estimation (no prior bound on k)",
		"graph", "true κ", "estimate", "scales", "sketch")
	trials := []struct {
		name string
		g    *hyper
	}{
		{"Harary H_{2,20}", workload.MustHarary(20, 2)},
		{"Harary H_{3,20}", workload.MustHarary(20, 3)},
		{"Harary H_{5,20}", workload.MustHarary(20, 5)},
		{"two components", twoCycles(20)},
	}
	for i, tr := range trials {
		g := tr.g
		e, err := vertexconn.NewEstimator(vertexconn.EstimatorParams{
			N: g.N(), KMax: 8, Seed: cfg.Seed ^ uint64(i)})
		if err != nil {
			return err
		}
		if err := stream.Apply(stream.FromGraph(g), e); err != nil {
			return err
		}
		got, err := e.Estimate()
		if err != nil {
			return err
		}
		trueK := graphalg.VertexConnectivity(g, 8)
		t2.AddRow(tr.name, trueK, got, e.Scales(), bench.FmtBytes(e.Words()*8))
	}
	emitTable(t2, out)
	return nil
}

// twoCycles returns two disjoint cycles on n vertices (κ = 0).
func twoCycles(n int) *hyper {
	h := workload.Cycle(n)
	half := n / 2
	h.MustAddEdge(mustEdge(0, n-1), -1)       // break the big cycle open
	h.MustAddEdge(mustEdge(half-1, half), -1) // split into two paths
	h.MustAddEdge(mustEdge(0, half-1), 1)     // close cycle on 0..half-1
	h.MustAddEdge(mustEdge(half, n-1), 1)     // close cycle on half..n-1
	return h
}
