package shardplane

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"graphsketch"
	"graphsketch/internal/graph"
	"graphsketch/internal/obs"
)

// ShareStats summarizes one share-framed gather in the simultaneous
// communication model's own terms: one message per vertex, framed sizes
// as transported.
type ShareStats struct {
	// Messages is the number of share frames merged (one per vertex).
	Messages int
	// FramedBytes is the total framed bytes across all messages.
	FramedBytes int64
	// MaxFramedBytes is the largest single framed message.
	MaxFramedBytes int
}

// MemberTransport runs the shard plane in-process with each shard holding
// its own member sketch — the configuration of Becker et al.'s
// simultaneous communication model. With one shard per vertex, Route
// applies exactly each player's incident updates to that player's state
// and GatherShares emits exactly the per-player messages the referee
// merges; internal/commsim is this transport plus byte accounting.
//
// Shards are plain values with no goroutines or sockets; Route applies
// sub-batches serially, so runs are deterministic.
type MemberTransport struct {
	bounds  []int
	members []ShareMember

	mu     sync.Mutex // serializes Route/Gather/Close; guards the router scratch
	rt     *router
	closed bool
}

// NewMembers builds a member transport over vertex space [0, n) with one
// member per shard, each constructed by mk (which must produce
// identically-parameterized instances — same seed — or gathered shares
// will be rejected by fingerprint). shards is capped at n and floored at 1.
func NewMembers(n, shards int, mk func() (ShareMember, error)) (*MemberTransport, error) {
	if shards > n {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	t := &MemberTransport{bounds: SplitBounds(n, shards), members: make([]ShareMember, shards)}
	t.rt = newRouter(t.bounds)
	for i := range t.members {
		m, err := mk()
		if err != nil {
			return nil, fmt.Errorf("shardplane: constructing member %d: %w", i, err)
		}
		t.members[i] = m
	}
	return t, nil
}

// Shards returns the number of members.
func (t *MemberTransport) Shards() int { return len(t.members) }

// Bounds returns the fixed shard boundaries.
func (t *MemberTransport) Bounds() []int { return t.bounds }

// Member exposes shard s's member sketch, for assertions in tests and for
// protocols that address players directly.
func (t *MemberTransport) Member(s int) ShareMember { return t.members[s] }

// Route splits the batch by owning shard and applies each sub-batch
// range-restricted to its member. Each member sees exactly the updates
// incident to its vertex range — with width-1 shards, precisely the
// player's incidence list.
func (t *MemberTransport) Route(batch []graph.WeightedEdge) error {
	if len(batch) == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	sp := obs.StartSpan("shardplane.route", spm.routeLatency)
	defer sp.End("updates", len(batch), "shards", len(t.members))
	subs := t.rt.route(batch)
	for s, sub := range subs {
		if len(sub) == 0 {
			continue
		}
		if err := t.members[s].UpdateBatchRange(sub, t.bounds[s], t.bounds[s+1]); err != nil {
			return fmt.Errorf("shardplane: member %d: %w", s, err)
		}
	}
	return nil
}

// GatherShares frames every vertex's share from its owning member and
// merges the frames into dst, returning the model's message accounting. A
// frame dst rejects (fingerprint mismatch — the members and dst were not
// built with the same randomness) aborts the gather with the rejection,
// counted in shardplane_gather_rejects_total; the stats cover the messages
// attempted up to and including the rejected one.
func (t *MemberTransport) GatherShares(dst ShareMerger) (ShareStats, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ShareStats{}, ErrClosed
	}
	sp := obs.StartSpan("shardplane.gather", nil)
	defer sp.End("shards", len(t.members))
	var st ShareStats
	for s, m := range t.members {
		for v := t.bounds[s]; v < t.bounds[s+1]; v++ {
			msg := m.VertexShareFrame(v)
			st.Messages++
			st.FramedBytes += int64(len(msg))
			if len(msg) > st.MaxFramedBytes {
				st.MaxFramedBytes = len(msg)
			}
			rest, err := dst.AddVertexShareFrame(msg)
			if err != nil {
				spm.gatherRejects.Inc()
				return st, fmt.Errorf("shardplane: merging share for vertex %d: %w", v, err)
			}
			if len(rest) != 0 {
				return st, fmt.Errorf("shardplane: share frame for vertex %d left %d trailing bytes: %w", v, len(rest), ErrBadPayload)
			}
			spm.gatherFrames.Inc()
		}
	}
	return st, nil
}

// Gather folds the members into dst: by checkpoint frames when the member
// and dst both speak them (the fingerprint-checked path), by per-vertex
// share frames when dst is a ShareMerger instead.
func (t *MemberTransport) Gather(dst graphsketch.Sketch) error {
	rf, framed := dst.(io.ReaderFrom)
	for _, m := range t.members {
		if !framed {
			break
		}
		_, framed = m.(io.WriterTo)
	}
	if !framed {
		sm, ok := dst.(ShareMerger)
		if !ok {
			return fmt.Errorf("shardplane: gather destination %T reads neither checkpoint nor share frames: %w", dst, ErrGatherMismatch)
		}
		_, err := t.GatherShares(sm)
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	var buf bytes.Buffer
	for s, m := range t.members {
		buf.Reset()
		if _, err := m.(io.WriterTo).WriteTo(&buf); err != nil {
			return fmt.Errorf("shardplane: checkpointing member %d: %w", s, err)
		}
		if _, err := rf.ReadFrom(&buf); err != nil {
			spm.gatherRejects.Inc()
			return fmt.Errorf("shardplane: merging member %d: %w", s, err)
		}
		spm.gatherFrames.Inc()
	}
	return nil
}

// Close marks the transport closed. Members hold no external resources.
func (t *MemberTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	return nil
}

var _ Transport = (*MemberTransport)(nil)
