package graphalg

import (
	"fmt"

	"graphsketch/internal/graph"
)

// EppsteinFilter is the insert-only vertex-connectivity certificate of
// Eppstein, Galil, Italiano and Nissenzweig, implemented as the baseline the
// paper compares against (Section 1.1): an inserted edge {u,v} is dropped
// iff the edges stored so far already contain k vertex-disjoint u–v paths.
// The stored graph is then a certificate for k-vertex connectivity.
//
// The paper's point — which experiment E8 demonstrates — is that this
// algorithm is *unsound under deletions*: a deleted edge may have been one
// of the disjoint paths that justified dropping some other edge, and the
// dropped edge is gone forever. Delete is provided so the experiment can
// drive the algorithm off that cliff; a production system must use the
// sketch-based structure instead.
type EppsteinFilter struct {
	k    int64
	kept *graph.Hypergraph
}

// NewEppsteinFilter returns a filter that certifies k-vertex connectivity
// on insert-only streams over n vertices.
func NewEppsteinFilter(n int, k int64) *EppsteinFilter {
	return &EppsteinFilter{k: k, kept: graph.NewGraph(n)}
}

// Insert offers edge {u,v}; it is stored unless k vertex-disjoint paths
// between u and v already exist among the stored edges. Returns whether the
// edge was kept.
func (f *EppsteinFilter) Insert(u, v int) (bool, error) {
	e, err := graph.NewHyperedge(u, v)
	if err != nil {
		return false, err
	}
	if f.kept.Has(e) {
		return false, nil // simple-graph model: duplicate inserts are no-ops
	}
	if VertexDisjointPaths(f.kept, u, v, f.k) >= f.k {
		return false, nil
	}
	return true, f.kept.AddEdge(e, 1)
}

// Delete removes edge {u,v} if it was kept; a deletion of a dropped edge is
// silently ignored — exactly the information loss that makes the algorithm
// incorrect on dynamic streams.
func (f *EppsteinFilter) Delete(u, v int) error {
	e, err := graph.NewHyperedge(u, v)
	if err != nil {
		return err
	}
	if !f.kept.Has(e) {
		return nil
	}
	return f.kept.AddEdge(e, -1)
}

// EdgesStored returns the number of stored edges. Eppstein et al. prove the
// insert-only bound: at most k·n edges survive the filter.
func (f *EppsteinFilter) EdgesStored() int { return f.kept.EdgeCount() }

// VertexConnectivity estimates κ of the streamed graph from the certificate,
// capped at k. Correct for insert-only streams; experiment E8 exhibits
// streams with deletions where this is wrong.
func (f *EppsteinFilter) VertexConnectivity() int64 {
	return VertexConnectivity(f.kept, f.k)
}

// String describes the filter state.
func (f *EppsteinFilter) String() string {
	return fmt.Sprintf("EppsteinFilter(k=%d, stored=%d)", f.k, f.kept.EdgeCount())
}
