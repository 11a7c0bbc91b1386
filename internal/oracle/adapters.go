package oracle

import (
	"graphsketch"
	"graphsketch/internal/core/vertexconn"
	"graphsketch/internal/graph"
	"graphsketch/internal/hybrid"
	"graphsketch/internal/obs"
)

// Decoder is a sketch the oracle can serve from: every decodable
// structure in the library (the spanning, skeleton and hybrid sketches,
// vertexconn and sparsify) implements it. Decode hangs its trace
// under the oracle's rebuild span, so a recorded rebuild reads
// oracle.rebuild → <structure decode> → … → peel_round.
type Decoder interface {
	graphsketch.Sketch
	NumVertices() int
	Decode(parent *obs.Span) (*graph.Hypergraph, error)
}

// For serves queries from d: the snapshot is d's decoded certificate (a
// spanning forest, skeleton, H, or sparsifier), so Connected answers are
// exactly the connectivity of the sketched graph (w.h.p.), and
// DisconnectedBy is one-sided (the certificate is not G) except for
// vertexconn's H, where it is the paper's Theorem 4 query. A Decoder with
// a MaxRemove() int method (vertexconn: its K) caps DisconnectedBy's
// removal sets there, past which that guarantee lapses.
func For(d Decoder) *Oracle {
	cfg := Config{Sketch: d, N: d.NumVertices(), Decode: d.Decode}
	if m, ok := d.(interface{ MaxRemove() int }); ok {
		cfg.MaxRemove = m.MaxRemove()
	}
	o, err := New(cfg)
	if err != nil {
		panic(err) // a Decoder yields a valid Config by construction
	}
	return o
}

// ForVertexConn is For(s).
//
// Deprecated: gsbench/ calls this; ROADMAP item 1 deletes it.
func ForVertexConn(s *vertexconn.Sketch) *Oracle { return For(s) }

// ForHybrid is For(s).
//
// Deprecated: gsbench/ calls this; ROADMAP item 1 deletes it.
func ForHybrid(s *hybrid.Sketch) *Oracle { return For(s) }
