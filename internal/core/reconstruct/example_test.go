package reconstruct_test

import (
	"fmt"

	"graphsketch/internal/core/reconstruct"
	"graphsketch/internal/sketch"
	"graphsketch/internal/workload"
)

// Example reconstructs the paper's Lemma 10 example graph — which is
// 2-cut-degenerate but NOT 2-degenerate — from a d = 2 sketch, a
// (d+1)-skeleton sketch.
func Example() {
	g := workload.PaperExample()
	s, err := sketch.NewSkeletonSketch(sketch.SkeletonParams{N: g.N(), R: g.Domain().R(), K: 2 + 1, Seed: 9})
	if err != nil {
		panic(err)
	}
	if err := s.UpdateGraph(g, 1); err != nil {
		panic(err)
	}
	got, err := reconstruct.Reconstruct(s)
	if err != nil {
		panic(err)
	}
	fmt.Println(got.Equal(g), got.EdgeCount())
	// Output: true 12
}
