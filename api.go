package graphsketch

import (
	"errors"
	"io"

	"graphsketch/internal/graph"
)

// ErrMergeMismatch is returned by Merge when the argument is not a sketch of
// the same concrete type as the receiver. Finer-grained incompatibilities
// (seed, domain, or shape differences between two sketches of the same type)
// are reported by the per-package sentinels, e.g. sketch.ErrSeedMismatch.
var ErrMergeMismatch = errors.New("graphsketch: cannot merge sketches of different types")

// ErrStaleDecode is returned (wrapped) by Querier and Oracle methods when a
// query cannot be served because rebuilding the cached snapshot failed: the
// sketch's decode budget was exhausted (sketch.ErrDecodeFailed under the
// wrap) and no fresh snapshot exists for the current epoch. The sketch state
// itself is intact — more updates may make decode succeed again, or the
// sketch was under-provisioned for the stream (raise Rounds or the sampler
// shape). Callers distinguish this operational condition from programmer
// errors (ErrVertexRange, merge mismatches) with errors.Is.
var ErrStaleDecode = errors.New("graphsketch: snapshot rebuild failed, serving would use a stale decode")

// ErrVertexRange is returned by Querier and Oracle methods when a query
// names a vertex outside the sketch's vertex space [0, n), and (wrapped) by
// share-frame merges when a frame names such a vertex.
var ErrVertexRange = errors.New("graphsketch: query vertex out of range")

// Updater consumes weighted hyperedge updates. A deletion is an update with
// negative weight; every sketch in this repository is linear, so updates in
// any order and grouping produce the same state.
//
// UpdateBatch applies a slice of updates in order. It is semantically
// identical to calling Update once per element, but lets implementations
// amortize hashing and dispatch, and is the unit of work the parallel
// ingestion engine (internal/engine) shards across workers.
type Updater interface {
	Update(e graph.Hyperedge, delta int64) error
	UpdateBatch(batch []graph.WeightedEdge) error
}

// Mergeable combines two sketches of the same type, seed, and shape by
// linear addition: after s.Merge(o), s holds the sketch of the union
// (multiset sum) of the two input streams. Merge returns ErrMergeMismatch
// when o has a different concrete type, and a per-package sentinel
// (sketch.ErrSeedMismatch, sketch.ErrDomainMismatch, sketch.ErrConfigMismatch)
// when the types match but the instances were constructed incompatibly.
type Mergeable interface {
	Merge(o Sketch) error
}

// Sketch is the interface every linear graph sketch in this repository
// implements: the paper structures sketch.SpanningSketch,
// sketch.SkeletonSketch (whose decoded skeleton edgeconn and reconstruct
// read), vertexconn.Sketch, vertexconn.Estimator and sparsify.Sketch.
//
//   - Update / UpdateBatch ingest the dynamic stream.
//   - Merge adds another identically-constructed sketch (distributed
//     aggregation).
//   - Words reports the memory footprint in 64-bit words (the paper's space
//     measure).
//
// State leaves a process only as a self-describing frame: a checkpoint
// (Checkpointer) or, for the vertex-sharded sketches, one share frame per
// vertex. Both carry an identity fingerprint the receiver verifies before
// merging.
type Sketch interface {
	Updater
	Mergeable
	Words() int
}

// Checkpointer is a Sketch that can durably checkpoint and restore itself
// through the versioned wire format (internal/codec). WriteTo emits one
// self-describing frame: magic, format version, structure type tag,
// params+seed identity fingerprint, the construction parameters themselves,
// the sketch state (for a vertex-sharded sketch, its n vertex shares in
// order), and a checksum. ReadFrom reads such a frame back, verifying that
// the frame's fingerprint matches the receiver's before merging the state
// linearly (an exact restore when the receiver is fresh); a frame from a
// differently-constructed sketch fails with codec.ErrFingerprint instead of
// silently mis-merging.
//
// Because checkpoint frames embed their parameters, codec.Open can
// reconstruct the sketch from the frame alone — no out-of-band construction
// — which is the intended restart path.
//
// All eight checkpointable sketches (the seven Sketch implementations above
// plus hybrid.Sketch) satisfy Checkpointer.
type Checkpointer interface {
	Sketch
	io.WriterTo
	io.ReaderFrom
}

// Sharded is a Sketch whose state is partitioned by vertex: vertex v's share
// (its sampler stacks) is written only by updates applied at v. This is the
// property the parallel ingestion engine exploits — workers owning disjoint
// vertex ranges can apply the same batch concurrently without locks.
//
// UpdateBatchRange applies only the [lo, hi) slice of every update's
// per-vertex work: for each edge in the batch, exactly the endpoints v with
// lo ≤ v < hi are updated. Applying a batch over a partition of [0, n)
// must yield exactly the state of UpdateBatch over the whole batch,
// regardless of which range runs first or concurrently. An implementation's
// state is per-vertex only: a range call writes nothing outside the shares
// of its own vertices.
type Sharded interface {
	Sketch
	// NumVertices returns n, the exclusive upper bound of the vertex space
	// the sketch shards over.
	NumVertices() int
	// UpdateBatchRange applies the batch restricted to endpoints in
	// [lo, hi).
	UpdateBatchRange(batch []graph.WeightedEdge, lo, hi int) error
}

// Querier answers pairwise connectivity queries against the most recent
// decoded snapshot of a sketch. Update is nanoseconds while decode (the H
// build, skeleton peeling) is milliseconds, so a serving layer must not
// decode per query; implementations (internal/oracle) cache the decoded
// spanning forest / H behind a monotonic epoch counter, invalidate lazily
// when mutations advance the epoch, and rebuild at most once per dirty
// epoch.
//
// Connected reports whether u and v are connected in the sketched
// (hyper)graph, answered from the cached snapshot in O(α(n)) — a DSU
// lookup, with no decode on a warm cache. It returns ErrVertexRange for
// vertices outside [0, n) and an ErrStaleDecode-wrapping error when the
// snapshot needed rebuilding and the decode failed.
//
// Implementations are safe for concurrent use: any number of Connected
// callers may race with each other and with mutations through the same
// oracle.
type Querier interface {
	Connected(u, v int) (bool, error)
}

// Oracle is the full query-serving surface over a sketch: pairwise
// connectivity plus vertex-cut queries, both against the same cached
// snapshot.
//
// DisconnectedBy reports whether removing the vertex set S (drop-incident
// semantics: every hyperedge touching S is removed) disconnects the
// sketched graph's surviving vertices. Against a vertexconn.Sketch
// snapshot this is the paper's Theorem 4 query — exact w.h.p. for
// |S| ≤ K; against a spanning-forest or skeleton snapshot it is one-sided
// (the snapshot is a sparse certificate of G, so a "still connected"
// answer may miss paths of G outside the certificate).
//
// Epoch returns the current mutation epoch: it advances on every mutation
// through the oracle, and a snapshot is served only while its recorded
// epoch matches — the staleness contract the epochguard lint enforces.
type Oracle interface {
	Querier
	DisconnectedBy(remove []int) (bool, error)
	Epoch() uint64
}
