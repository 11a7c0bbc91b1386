// Package engine is the ingestion layer over the shard plane
// (internal/shardplane): batching and stream consumption. The shard
// routing itself — worker pools, vertex-range partitioning, skew metrics,
// and the TCP cluster transport — lives in shardplane; an Engine is a thin
// graphsketch.Updater/stream.Sink adapter over any Transport, so the same
// ingest loop drives an in-process pool and a gsd cluster. Decoding is
// each sketch's own Decode method.
//
// # The vertex-sharding invariant
//
// Every sketch is vertex-based: vertex v's share (its L0 sampler stacks) is
// written only by updates applied *at* v, and an edge update decomposes into
// independent per-endpoint writes (graphsketch.Sharded). The plane
// therefore partitions the vertex space [0, n) into contiguous ranges, one
// per worker, and hands every worker the whole batch: worker w applies, for
// each edge, only the endpoints inside its range (UpdateBatchRange). Since
// the ranges are disjoint, no two workers ever write the same sampler and
// no locks are needed; since each vertex's updates are applied by a single
// worker in batch order, and sampler state is a sum of field elements
// (commutative, exact), the final state equals the serial state for the
// same seed — the equivalence the engine tests assert byte-for-byte on
// checkpoint frames.
package engine

import (
	"sync"

	"graphsketch"
	"graphsketch/internal/graph"
	"graphsketch/internal/obs"
	"graphsketch/internal/shardplane"
	"graphsketch/internal/stream"
)

// ErrClosed is returned by updates submitted after Close. It is the shard
// plane's closed sentinel: an engine is closed exactly when its transport
// is.
var ErrClosed = shardplane.ErrClosed

// DefaultBatchSize is the number of stream updates Consume groups into one
// parallel dispatch when the caller passes batchSize <= 0. Large enough to
// amortize the fan-out/fan-in handshake, small enough to keep batches in
// cache.
const DefaultBatchSize = 1024

// Options configures an Engine.
type Options struct {
	// Workers is the number of ingestion workers (vertex shards). 0 means
	// GOMAXPROCS; the count is capped at the sketch's vertex count.
	Workers int
}

// Engine feeds a sketch through a shardplane.Transport. UpdateBatch blocks
// until the batch is fully applied, so the engine is a drop-in
// stream.Sink: calls never overlap, and decoding between calls is safe.
//
// The engine must be released with Close once ingestion is done. Close is
// idempotent and safe to call concurrently with itself and with in-flight
// updates: it waits for the running batch and later updates return
// ErrClosed.
type Engine struct {
	tr shardplane.Transport

	// mu guards the single-update scratch; batch serialization itself is
	// the transport's job.
	mu  sync.Mutex
	one [1]graph.WeightedEdge
}

// New returns an engine over target with opt.Workers goroutine shards —
// the in-process configuration (shardplane.LocalTransport). The shard
// boundaries are fixed for the engine's lifetime: worker w owns vertices
// [bounds[w], bounds[w+1]).
func New(target graphsketch.Sharded, opt Options) *Engine {
	return NewWithTransport(shardplane.NewLocal(target, shardplane.Options{Shards: opt.Workers}))
}

// NewWithTransport returns an engine over an existing transport — the way
// a gsd coordinator drives a TCP cluster with the same Consume loop the
// local pool uses. The engine takes ownership: Close closes the transport.
func NewWithTransport(tr shardplane.Transport) *Engine {
	return &Engine{tr: tr}
}

// Workers returns the number of shards the engine routes over.
func (e *Engine) Workers() int { return e.tr.Shards() }

// UpdateBatch applies the batch through the shard plane and blocks until
// every shard has finished. On error the sketch state is unspecified (each
// shard stops at its first failing edge); the first error by shard index
// is returned. Concurrent calls are applied one batch at a time; after
// Close every call returns ErrClosed.
func (e *Engine) UpdateBatch(batch []graph.WeightedEdge) error {
	return e.tr.Route(batch)
}

// Update applies a single weighted update through the plane, so the
// single-writer-per-vertex invariant holds even when Update and UpdateBatch
// calls are mixed. For high-rate streams prefer UpdateBatch or Consume.
func (e *Engine) Update(ed graph.Hyperedge, delta int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.one[0] = graph.WeightedEdge{E: ed, W: delta}
	return e.UpdateBatch(e.one[:])
}

// Consume feeds an entire stream through the plane in batches of batchSize
// (<= 0 means DefaultBatchSize).
func (e *Engine) Consume(st stream.Stream, batchSize int) error {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	buf := make([]graph.WeightedEdge, 0, batchSize)
	for _, u := range st {
		buf = append(buf, graph.WeightedEdge{E: u.Edge, W: int64(u.Op)})
		if len(buf) == batchSize {
			if err := e.UpdateBatch(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	return e.UpdateBatch(buf)
}

// Close shuts the transport down and waits for its shards to exit. It is
// idempotent and safe to call concurrently with in-flight updates: the
// running batch completes first, and later updates return ErrClosed.
func (e *Engine) Close() {
	e.tr.Close()
}

// DecodeHybridTraced returns h.Decode(parent).
//
// Deprecated: gsbench/ calls this; ROADMAP item 1 deletes it.
func DecodeHybridTraced(h interface {
	Decode(*obs.Span) (*graph.Hypergraph, error)
}, parent *obs.Span) (*graph.Hypergraph, error) {
	return h.Decode(parent)
}

var _ stream.Sink = (*Engine)(nil)
var _ graphsketch.Updater = (*Engine)(nil)
