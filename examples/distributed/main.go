// Distributed: the simultaneous communication model in action.
//
// The paper frames its sketches in the model of Becker et al. (Section 2):
// every vertex is a player holding only its incident edges, all players
// share public random bits, each sends ONE message to a referee, and the
// referee must answer from the messages alone. Because the sketches are
// vertex-based and linear, player v's message is just vertex v's serialized
// share of the sketch.
//
// This example reconstructs the paper's own Lemma 10 example graph — the
// 8-vertex graph that is 2-cut-degenerate but NOT 2-degenerate — at the
// referee, from eight small messages. The Becker et al. protocol it
// generalizes cannot reconstruct this graph with a degree-2 budget, which
// is precisely the gap Theorem 15 closes.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"

	"graphsketch/internal/commsim"
	"graphsketch/internal/core/reconstruct"
	"graphsketch/internal/sketch"
	"graphsketch/internal/workload"
)

func main() {
	g := workload.PaperExample()
	fmt.Printf("input: the paper's Lemma 10 graph — n=%d, m=%d, min degree 3, cut-degeneracy 2\n",
		g.N(), g.EdgeCount())

	const seed = 1515 // the shared public randomness
	// Theorem 15 at k = 2 reads a (k+1)-skeleton sketch.
	p := sketch.SkeletonParams{N: g.N(), K: 2 + 1, Seed: seed}

	referee, err := sketch.NewSkeletonSketch(p)
	if err != nil {
		log.Fatal(err)
	}
	res, err := commsim.Run(g,
		func() commsim.Protocol {
			s, err := sketch.NewSkeletonSketch(p)
			if err != nil {
				log.Fatal(err)
			}
			return s
		},
		referee)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d players sent one message each: max %d bytes, mean %.0f bytes\n",
		res.Players, res.MaxMessageBytes, res.MeanMessageBytes())

	got, err := reconstruct.Reconstruct(referee)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("referee reconstructed %d edges; exact match: %v\n",
		got.EdgeCount(), got.Equal(g))

	// Contrast: the Becker et al. d-degenerate protocol at the same budget
	// (d = 2) stalls on this graph — its peeling needs a vertex of degree
	// ≤ 2 and there is none.
	bReferee := reconstruct.NewBecker(seed, g.N(), 2, 1)
	bRes, err := commsim.Run(g,
		func() commsim.Protocol { return reconstruct.NewBecker(seed, g.N(), 2, 1) },
		bReferee)
	if err != nil {
		log.Fatal(err)
	}
	_, bErr := bReferee.Reconstruct()
	fmt.Printf("Becker baseline at the same d=2 budget (max msg %d bytes): %v\n",
		bRes.MaxMessageBytes, bErr)
}
