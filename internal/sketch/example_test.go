package sketch_test

import (
	"fmt"

	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/sketch"
)

// ExampleSpanningSketch streams a small dynamic graph — including a
// deletion — and decodes a spanning graph with the surviving components.
func ExampleSpanningSketch() {
	dom := graph.MustDomain(6, 2)
	s := sketch.NewSpanning(1, dom, sketch.SpanningConfig{})

	s.Update(graph.MustEdge(0, 1), 1)
	s.Update(graph.MustEdge(1, 2), 1)
	s.Update(graph.MustEdge(3, 4), 1)
	s.Update(graph.MustEdge(0, 2), 1)
	s.Update(graph.MustEdge(0, 2), -1) // deleted again

	f, err := s.Decode(nil)
	if err != nil {
		panic(err)
	}
	d := graphalg.ComponentsOf(f)
	fmt.Println(d.Same(0, 2), d.Same(0, 3), d.Same(3, 4))
	// Output: true false true
}

// ExampleSkeletonSketch decodes a 2-skeleton: every cut of the original
// graph keeps at least min(cut, 2) edges.
func ExampleSkeletonSketch() {
	sk, err := sketch.NewSkeletonSketch(sketch.SkeletonParams{N: 4, K: 2, Seed: 3})
	if err != nil {
		panic(err)
	}
	// K4.
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			sk.Update(graph.MustEdge(u, v), 1)
		}
	}
	skel, err := sk.Decode(nil)
	if err != nil {
		panic(err)
	}
	// A 2-skeleton of K4 has at most 2·(n−1) = 6 edges and every
	// single-vertex cut keeps at least 2 of its 3 edges.
	ok := true
	for v := 0; v < 4; v++ {
		if skel.CutWeight(func(u int) bool { return u == v }) < 2 {
			ok = false
		}
	}
	fmt.Println(skel.EdgeCount() <= 6, ok)
	// Output: true true
}

// ExampleSpanningSketch_hypergraph shows the Theorem 13 generalization:
// hyperedges connect all their endpoints.
func ExampleSpanningSketch_hypergraph() {
	dom := graph.MustDomain(6, 3)
	s := sketch.NewSpanning(5, dom, sketch.SpanningConfig{})
	s.Update(graph.MustEdge(0, 1, 2), 1)
	s.Update(graph.MustEdge(2, 3, 4), 1)

	conn, err := s.Components()
	if err != nil {
		panic(err)
	}
	fmt.Println(conn.Same(0, 4), conn.Same(0, 5))
	// Output: true false
}
