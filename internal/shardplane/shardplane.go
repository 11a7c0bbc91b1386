// Package shardplane is the repository's shard runtime: one substrate for
// routing a dynamic-stream update batch to vertex-range shards and, for
// remote shards, pulling their checkpoints back and merging them at a
// coordinator.
//
// The paper's model (Becker et al.'s simultaneous communication, Section 2)
// and the parallel ingestion engine are the same machine at different
// granularities: per-vertex players emitting linear shares to a referee,
// and per-range workers applying UpdateBatchRange against one shared
// sketch. This package factors that machine out behind the Transport
// contract with two implementations:
//
//   - LocalTransport — goroutine shards over one shared sketch (the engine's
//     historical behavior: zero-alloc steady-state routing, per-shard skew
//     metrics). The state lives in the target itself, so there is nothing
//     to gather.
//   - TCPTransport — each shard is a remote process (cmd/gsd) holding its
//     own identically-seeded member sketch; batches travel as codec frames,
//     and Gather, a method of this transport alone, pulls
//     fingerprint-checked checkpoint frames and merges them linearly into
//     the coordinator. A dead shard is reconnected and restored from its
//     last pulled checkpoint, with the window of batches since then
//     replayed (exactly-once by reset-and-replay).
//
// The simultaneous communication model itself, one width-1 shard per
// vertex, is internal/commsim, which runs it as a direct loop.
//
// Correctness rests on linearity: the sketches are linear maps of the
// stream, so a batch split across shards (each applying only its own
// vertex range) sums to exactly the single-machine sketch, regardless of
// which transport carried the pieces.
package shardplane

import (
	"errors"

	"graphsketch"
	"graphsketch/internal/graph"
)

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("shardplane: transport closed")

// ErrNoAddrs is returned when a distributed transport is dialed with an
// empty address list.
var ErrNoAddrs = errors.New("shardplane: no shard addresses")

// ErrGatherMismatch is returned when a gather destination cannot read the
// checkpoint frames a distributed plane pulls.
var ErrGatherMismatch = errors.New("shardplane: gather destination cannot merge this plane's state")

// ErrNotMember is returned when a hello frame's embedded checkpoint opens
// to a sketch type that cannot serve as a shard member.
var ErrNotMember = errors.New("shardplane: sketch cannot serve as a shard member")

// ErrBadPayload is returned when a frame's payload parses structurally —
// the codec envelope was fine — but its contents are inconsistent:
// trailing bytes, an impossible shard assignment, and the like.
var ErrBadPayload = errors.New("shardplane: malformed frame payload")

// Transport routes update batches to a fixed partition of the vertex space.
// Implementations serialize Route against itself and against Close, so a
// Transport is safe for concurrent use; after Close every Route returns
// ErrClosed.
type Transport interface {
	// Shards returns the number of vertex-range shards.
	Shards() int
	// Bounds returns the shard boundaries: shard s owns vertices
	// [Bounds()[s], Bounds()[s+1]). The slice must not be mutated.
	Bounds() []int
	// Route applies one update batch across all shards and blocks until
	// every shard has applied its range — the same contract as the
	// engine's UpdateBatch, so decoding between calls is safe.
	Route(batch []graph.WeightedEdge) error
	// Close releases the transport's shards, connections, and goroutines.
	// It is idempotent; Routes racing with Close either complete or
	// return ErrClosed.
	Close() error
}

// Member is what one shard of a distributed plane holds: a vertex-sharded
// sketch that exchanges identity-checked frames. Every Checkpointer in the
// repository whose type also implements graphsketch.Sharded satisfies it;
// the coordinator's prototype sketch doubles as the construction template
// shipped to shards inside the hello frame.
type Member interface {
	graphsketch.Sharded
	graphsketch.Checkpointer
	// Fingerprint is the construction-identity hash the codec frames carry
	// (parameters and seed); it binds a session's messages to one sketch
	// identity.
	Fingerprint() uint64
}

// SplitBounds partitions [0, n) into the canonical contiguous shard
// ranges: bounds[s] = s*n/shards, the same split the engine has always
// used, so shard s of any transport owns an identical range.
func SplitBounds(n, shards int) []int {
	bounds := make([]int, shards+1)
	for s := 0; s <= shards; s++ {
		bounds[s] = s * n / shards
	}
	return bounds
}

// shardOf locates the shard owning vertex v under the canonical split.
// bounds[s] = s*n/w, so s = v*w/n is at most one off; the loops correct
// the rounding.
func shardOf(bounds []int, n, w, v int) int {
	s := v * w / n
	for bounds[s+1] <= v {
		s++
	}
	for bounds[s] > v {
		s--
	}
	return s
}

// router splits batches into per-shard sub-batches, reusing its scratch
// slices across calls. An edge goes to every shard owning at least one of
// its endpoints (endpoints are sorted, so same-shard duplicates are
// adjacent and each shard receives the edge once). An edge with an
// endpoint outside [0, n) is routed to shard 0, whose range-restricted
// apply reports the range error — mirroring the engine's broadcast
// behavior, where every shard sees (and the first by index reports) it.
type router struct {
	bounds []int
	subs   [][]graph.WeightedEdge
}

func newRouter(bounds []int) *router {
	return &router{bounds: bounds, subs: make([][]graph.WeightedEdge, len(bounds)-1)}
}

// route fills r.subs for batch; the returned slices are valid until the
// next call.
func (r *router) route(batch []graph.WeightedEdge) [][]graph.WeightedEdge {
	w := len(r.subs)
	n := r.bounds[w]
	for s := range r.subs {
		r.subs[s] = r.subs[s][:0]
	}
	for _, we := range batch {
		prev := -1
		for _, v := range we.E {
			s := 0
			if v >= 0 && v < n {
				s = shardOf(r.bounds, n, w, v)
			}
			if s != prev {
				r.subs[s] = append(r.subs[s], we)
				prev = s
			}
		}
	}
	return r.subs
}
