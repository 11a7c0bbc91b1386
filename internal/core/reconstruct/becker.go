package reconstruct

import (
	"errors"

	"graphsketch/internal/codec"
	"graphsketch/internal/graph"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/recovery"
	"graphsketch/internal/sketch"
)

// BeckerSketch is the d-degenerate graph reconstruction of Becker,
// Matamala, Nisse, Rapaport, Suchan and Todinca (IPDPS 2011), the result
// Theorem 15 strictly generalizes: each vertex holds an s-sparse recovery
// sketch of its adjacency-matrix row (s = O(d)); decoding repeatedly finds
// a vertex whose current degree is at most s — a d-degenerate graph always
// has one — recovers its row exactly, and deletes it from its neighbours'
// sketches by linearity.
//
// It reconstructs d-degenerate graphs but not the strictly larger
// d-cut-degenerate class (Lemma 10); experiment E6 runs both on the
// paper's separating example.
type BeckerSketch struct {
	n, d   int
	budget int                 // declared recovery sparsity: decode refuses larger rows
	seed   uint64              // wire identity (with n, d, budget)
	rows   []*recovery.SSparse // rows[v] sketches row v of the adjacency matrix
}

// NewBecker returns a Becker reconstruction sketch for simple graphs on n
// vertices with degeneracy at most d. slack scales the per-row recovery
// sparsity (the constant in O(d polylog n)); 2 is a sound default.
func NewBecker(seed uint64, n, d, slack int) *BeckerSketch {
	if d < 1 || n < 2 {
		panic("reconstruct: NewBecker needs n >= 2, d >= 1")
	}
	if slack < 1 {
		slack = 2
	}
	ss := hashutil.NewSeedStream(seed ^ 0xbec8e2)
	rows := make([]*recovery.SSparse, n)
	cfg := recovery.SSparseConfig{S: slack * d}
	// All rows share one seed: row u's coordinate v and row v's
	// coordinate u always carry equal values, but the rows are
	// separate vectors; a shared projection is fine and keeps the
	// public randomness small — one Shape backs every row.
	shape := recovery.NewShape(ss.At(0), uint64(n), cfg, 0)
	for v := range rows {
		rows[v] = recovery.NewSSparseFromShape(shape)
	}
	return &BeckerSketch{n: n, d: d, budget: slack * d, seed: seed, rows: rows}
}

// Update applies the insertion (+1) or deletion (−1) of edge {u,v}: row u's
// coordinate v and row v's coordinate u change together.
func (b *BeckerSketch) Update(e graph.Hyperedge, delta int64) error {
	if len(e) != 2 {
		return errors.New("reconstruct: Becker sketch is defined for graphs (edges of size 2)")
	}
	u, v := e[0], e[1]
	if v >= b.n {
		return errors.New("reconstruct: vertex out of range")
	}
	b.rows[u].Update(uint64(v), delta)
	b.rows[v].Update(uint64(u), delta)
	return nil
}

// UpdateBatch applies a slice of weighted updates in order.
func (b *BeckerSketch) UpdateBatch(batch []graph.WeightedEdge) error {
	for _, we := range batch {
		if err := b.Update(we.E, we.W); err != nil {
			return err
		}
	}
	return nil
}

// NumVertices returns n, the vertex space the rows shard over.
func (b *BeckerSketch) NumVertices() int { return b.n }

// UpdateBatchRange applies the batch restricted to endpoints in [lo, hi):
// for each edge {u, v}, only the rows inside the range are touched. The
// rows are strictly per-vertex state, so a partition of [0, n) reproduces
// UpdateBatch exactly — which makes the Becker baseline a shard-plane
// member like the Theorem 15 sketch it is compared against.
func (b *BeckerSketch) UpdateBatchRange(batch []graph.WeightedEdge, lo, hi int) error {
	for _, we := range batch {
		e := we.E
		if len(e) != 2 {
			return errors.New("reconstruct: Becker sketch is defined for graphs (edges of size 2)")
		}
		u, v := e[0], e[1]
		if u < 0 || v >= b.n {
			return errors.New("reconstruct: vertex out of range")
		}
		if u >= lo && u < hi {
			b.rows[u].Update(uint64(v), we.W)
		}
		if v >= lo && v < hi {
			b.rows[v].Update(uint64(u), we.W)
		}
	}
	return nil
}

// UpdateGraph applies every edge of h scaled by scale.
func (b *BeckerSketch) UpdateGraph(h *graph.Hypergraph, scale int64) error {
	for _, we := range h.WeightedEdges() {
		if err := b.Update(we.E, we.W*scale); err != nil {
			return err
		}
	}
	return nil
}

// ErrNotDegenerate is returned when peeling stalls: no remaining vertex has
// degree within the sketch's recovery sparsity, i.e. the graph's degeneracy
// exceeds the sketch parameter.
var ErrNotDegenerate = errors.New("reconstruct: peeling stalled; graph degeneracy exceeds sketch parameter")

// Reconstruct recovers the full graph when its degeneracy is at most the
// sketch's recovery budget. Decoding peels low-degree vertices; it works on
// a scratch copy, so it can be re-run.
func (b *BeckerSketch) Reconstruct() (*graph.Hypergraph, error) {
	work := make([]*recovery.SSparse, b.n)
	for v := range work {
		work[v] = b.rows[v].Clone()
	}
	out := graph.NewGraph(b.n)
	done := make([]bool, b.n)
	remaining := b.n
	for remaining > 0 {
		progressed := false
		for v := 0; v < b.n; v++ {
			if done[v] {
				continue
			}
			row, ok := work[v].Decode()
			if !ok || len(row) > b.budget {
				// Degree still above the declared recovery sparsity.
				// The structure can sometimes decode slightly beyond its
				// design sparsity, but the Becker guarantee — and the
				// baseline's honesty in experiment E6 — is exactly the
				// O(d) budget, so larger rows are refused.
				continue
			}
			for uu, w := range row {
				u := int(uu)
				if w != 1 {
					return nil, errors.New("reconstruct: Becker sketch requires a simple graph")
				}
				e := graph.MustEdge(v, u)
				if !out.Has(e) {
					out.MustAddEdge(e, 1)
				}
				// Remove the edge from both live rows.
				work[v].Update(uu, -1)
				work[u].Update(uint64(v), -1)
			}
			done[v] = true
			remaining--
			progressed = true
		}
		if !progressed {
			return nil, ErrNotDegenerate
		}
	}
	return out, nil
}

// Words returns the memory footprint in 64-bit words, counting the rows'
// shared projection randomness once.
func (b *BeckerSketch) Words() int {
	w := b.SharedWords()
	for _, r := range b.rows {
		w += r.Words()
	}
	return w
}

// SharedWords returns the size of the single Shape every row shares.
func (b *BeckerSketch) SharedWords() int { return b.rows[0].Shape().RandWords() }

// VertexWords returns one row's share (the per-player message size).
func (b *BeckerSketch) VertexWords(v int) int { return b.rows[v].Words() }

// ShareParts appends row v, the whole of player P_v's message
// (sketch.Sharer).
func (b *BeckerSketch) ShareParts(dst []sketch.SharePart, v int) []sketch.SharePart {
	return append(dst, b.rows[v])
}

// Fingerprint returns the Becker sketch's wire identity: n, d, the recovery
// budget, and the seed. Becker shares carry TagBecker frames; the sketch has
// no checkpoint opener (it is the shares-only baseline protocol).
func (b *BeckerSketch) Fingerprint() uint64 {
	params := codec.AppendUint64s(nil,
		uint64(b.n), uint64(b.d), uint64(b.budget), b.seed)
	return codec.Fingerprint(codec.TagBecker, params)
}

// VertexShareFrame frames row v — player P_v's message — for transport.
func (b *BeckerSketch) VertexShareFrame(v int) []byte {
	return sketch.ShareFrame(b, codec.TagBecker, b.Fingerprint(), v)
}

// AddVertexShareFrame verifies and merges one framed row share from the
// front of data, returning the remaining bytes.
func (b *BeckerSketch) AddVertexShareFrame(data []byte) ([]byte, error) {
	return sketch.AddShareFrame(b, codec.TagBecker, b.Fingerprint(), data)
}
