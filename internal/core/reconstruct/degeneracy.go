package reconstruct

import (
	"errors"
	"fmt"

	"graphsketch/internal/graph"
	"graphsketch/internal/graphalg"
	"graphsketch/internal/sketch"
)

// DegeneracySketch computes the cut-degeneracy of a streamed hypergraph —
// the smallest d with light_d(G) = E (Definition 9) — without a prior bound
// on d: it maintains Theorem 15 reconstruction sketches at geometric scales
// d ∈ {1, 2, 4, …, DMax} and, at query time, finds the smallest scale whose
// reconstruction is complete. The recovered graph then yields the *exact*
// cut-degeneracy (and the graph itself) offline.
//
// Space is O(DMax·n·polylog n) — the largest scale dominates the geometric
// sum, so the lack of a prior bound costs only a constant factor.
type DegeneracySketch struct {
	dmax   int
	scales []*sketch.SkeletonSketch // scale d is a (d+1)-skeleton sketch
}

// NewDegeneracySketch returns a sketch resolving cut-degeneracy values up
// to DMax.
func NewDegeneracySketch(seed uint64, dom graph.Domain, dmax int, cfg sketch.SpanningConfig) (*DegeneracySketch, error) {
	if dmax < 1 {
		return nil, fmt.Errorf("reconstruct: need DMax >= 1, got %d", dmax)
	}
	s := &DegeneracySketch{dmax: dmax}
	for d := 1; ; d *= 2 {
		sc, err := sketch.NewSkeletonSketch(sketch.SkeletonParams{
			N: dom.N(), R: dom.R(), K: d + 1, Spanning: cfg, Seed: seed ^ uint64(d)*0x9e3779b9,
		})
		if err != nil {
			return nil, err
		}
		s.scales = append(s.scales, sc)
		if d >= dmax {
			break
		}
	}
	return s, nil
}

// Update applies a hyperedge insertion (+1) or deletion (−1) to all scales.
func (s *DegeneracySketch) Update(e graph.Hyperedge, delta int64) error {
	for _, sc := range s.scales {
		if err := sc.Update(e, delta); err != nil {
			return err
		}
	}
	return nil
}

// ErrAboveDMax is returned when no scale reconstructs completely: the
// graph's cut-degeneracy exceeds DMax.
var ErrAboveDMax = errors.New("reconstruct: cut-degeneracy exceeds the sketch's DMax")

// CutDegeneracy returns the exact cut-degeneracy of the streamed graph
// together with the fully reconstructed graph. It tries scales in
// increasing order; the first complete reconstruction pins the value
// exactly via the offline strength decomposition.
func (s *DegeneracySketch) CutDegeneracy() (int64, *graph.Hypergraph, error) {
	for _, sc := range s.scales {
		got, err := Reconstruct(sc)
		if errors.Is(err, ErrIncomplete) {
			continue // cut-degeneracy above this scale
		}
		if err != nil {
			return 0, nil, err
		}
		return graphalg.CutDegeneracy(got), got, nil
	}
	return 0, nil, ErrAboveDMax
}

// Scales returns the number of maintained scales.
func (s *DegeneracySketch) Scales() int { return len(s.scales) }

// Words returns the total memory footprint in 64-bit words.
func (s *DegeneracySketch) Words() int {
	w := 0
	for _, sc := range s.scales {
		w += sc.Words()
	}
	return w
}
