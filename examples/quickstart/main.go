// Quickstart: a 60-second tour of the library.
//
// We stream a small dynamic graph — inserts and deletes — into three
// sketches (connectivity, vertex-connectivity queries, sparsifier) and
// decode each. Every sketch sees only the stream, never the graph, and
// every sketch implements the one graphsketch.Sketch interface, so the
// parallel ingestion engine drives them all the same way.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"graphsketch"
	"graphsketch/internal/core/sparsify"
	"graphsketch/internal/core/vertexconn"
	"graphsketch/internal/engine"
	"graphsketch/internal/graph"
	"graphsketch/internal/sketch"
)

func main() {
	const n = 10

	// Three one-pass sketches over the same stream. Every constructor
	// takes a Params struct; zero fields get sound defaults.
	conn, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: n, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	vc, err := vertexconn.New(vertexconn.Params{N: n, K: 1, Subgraphs: 32, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	sp, err := sparsify.New(sparsify.Params{N: n, K: 4, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// The stream: build two triangles, bridge them, then delete the
	// scaffolding edge we regret.
	upd := func(delta int64, u, v int) graph.WeightedEdge {
		return graph.WeightedEdge{E: graph.MustEdge(u, v), W: delta}
	}
	stream := []graph.WeightedEdge{
		upd(+1, 0, 1),
		upd(+1, 1, 2),
		upd(+1, 0, 2),
		upd(+1, 5, 6),
		upd(+1, 6, 7),
		upd(+1, 5, 7),
		upd(+1, 2, 5), // the bridge
		upd(+1, 0, 7), // scaffolding ...
		upd(-1, 0, 7), // ... deleted: linear sketches just subtract
	}

	// Every sketch is graphsketch.Sharded — edge updates decompose by
	// endpoint — so the engine ingests each batch with one lock-free
	// worker per vertex range.
	for _, s := range []graphsketch.Sharded{conn, vc, sp} {
		eng := engine.New(s, engine.Options{})
		if err := eng.UpdateBatch(stream); err != nil {
			log.Fatal(err)
		}
		eng.Close()
	}

	// 1. Connectivity (vertices 3,4,8,9 are isolated, so: not connected).
	ok, err := conn.Connected()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("connected over all %d vertices: %v (vertices 3,4,8,9 are isolated)\n", n, ok)

	comps, err := conn.Components()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("components: %d\n", comps.Components())

	// 2. Vertex-connectivity query: is {2} a cut vertex?
	disc, err := vc.Disconnects(map[int]bool{2: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("removing vertex 2 disconnects the two triangles: %v\n", disc)

	// 3. Sparsifier: at K above the graph's strength it reproduces the
	// graph exactly.
	sparse, err := sp.Decode(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sparsifier: %d weighted edges (stream had 7 live edges)\n", sparse.EdgeCount())
	for _, we := range sparse.WeightedEdges() {
		fmt.Printf("  weight %d  %v\n", we.W, we.E)
	}
}
