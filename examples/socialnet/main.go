// Socialnet: monitoring the robustness of a changing social network.
//
// A community graph evolves through friend/unfriend events (a dynamic
// stream). We maintain a single vertex-connectivity sketch behind the
// query-serving oracle and answer three operational questions at
// checkpoints, without ever storing the graph:
//
//   - "Can these k moderators leaving disconnect the community?"
//     (Theorem 4 queries via Oracle.DisconnectedBy)
//   - "Are these two members in the same component right now?"
//     (Oracle.Connected — served from the epoch-cached decode, so a
//     burst of thousands of queries pays for one decode)
//   - "How many simultaneous departures can the network survive?"
//     (Theorem 8 estimation)
//
// The scenario plants a two-community structure held together by a small
// set of bridge members — the separator the sketch must find.
//
//	go run ./examples/socialnet
package main

import (
	"fmt"
	"log"

	"graphsketch/internal/core/vertexconn"
	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/oracle"
	"graphsketch/internal/workload"
)

func main() {
	// Two tight communities of 8 sharing 2 "bridge" members.
	g, err := workload.SharedCliques(8, 8, 2)
	if err != nil {
		log.Fatal(err)
	}
	n := g.N()
	fmt.Printf("community graph: %d members, %d friendships, bridges = {0, 1}\n",
		n, g.EdgeCount())

	sk, err := vertexconn.New(vertexconn.Params{N: n, K: 2, Subgraphs: 96, Seed: 2026})
	if err != nil {
		log.Fatal(err)
	}
	// All mutations and queries go through the oracle: mutations advance
	// its epoch, queries serve from the cached decode of the latest epoch.
	orc := oracle.For(sk)

	// Phase 1: the friendships arrive in random order, interleaved with
	// transient friendships that are later removed (churn).
	rng := hashutil.NewRand(20, 26)
	churn := workload.ErdosRenyi(rng, n, 0.3)
	applied := 0
	for _, e := range churn.Edges() {
		if !g.Has(e) {
			must(orc.Update(e, 1))
			applied++
		}
	}
	for _, e := range g.Edges() {
		must(orc.Update(e, 1))
		applied++
	}
	for _, e := range churn.Edges() {
		if !g.Has(e) {
			must(orc.Update(e, -1))
			applied++
		}
	}
	fmt.Printf("streamed %d events (inserts + deletes)\n", applied)

	// Question 1: are the two bridge members a single point of failure?
	disc, err := orc.DisconnectedBy([]int{0, 1})
	must(err)
	fmt.Printf("if moderators {0,1} leave, the network splits: %v\n", disc)

	// A random pair, for contrast.
	disc, err = orc.DisconnectedBy([]int{3, 9})
	must(err)
	fmt.Printf("if members {3,9} leave, the network splits: %v\n", disc)

	// Question 2: a dashboard refreshing pairwise reachability for every
	// member pair. Only the first query decodes; the rest hit the cached
	// snapshot (watch Rebuilds stay at 1 while Hits grows).
	pairs, connectedPairs := 0, 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			ok, err := orc.Connected(u, v)
			must(err)
			pairs++
			if ok {
				connectedPairs++
			}
		}
	}
	st := orc.CacheStats()
	fmt.Printf("are_connected over all %d pairs: %d connected; cache: %d hits, %d misses, %d rebuilds\n",
		pairs, connectedPairs, st.Hits, st.Misses, st.Rebuilds)

	// Question 3: overall robustness.
	kappa, err := sk.EstimateConnectivity(2)
	must(err)
	fmt.Printf("estimated vertex connectivity (capped at 2): %d\n", kappa)
	fmt.Printf("ground truth: %d\n", graphalg.VertexConnectivity(g, 2))

	// Phase 2: a new friendship bridges the communities directly; the
	// single point of failure disappears. The mutation advances the
	// oracle's epoch (epoch %d → %d below), so the next query lazily
	// rebuilds the snapshot — the sketch just keeps streaming.
	before := orc.Epoch()
	must(orc.Update(graph.MustEdge(5, 12), 1))
	fmt.Printf("cross-community friendship {5,12} streamed: epoch %d -> %d\n", before, orc.Epoch())
	disc, err = orc.DisconnectedBy([]int{0, 1})
	must(err)
	fmt.Printf("now bridges {0,1} leaving splits the network: %v\n", disc)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
