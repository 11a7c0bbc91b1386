// Package commsim simulates the simultaneous communication model of Becker
// et al. that the paper frames its sketches in (Section 2): n players
// P_1, …, P_n and a referee Q. Player P_v's input is the set of hyperedges
// incident to vertex v; all players share public random bits (here: the
// sketch seed); each player sends one message to Q, and Q must compute the
// answer from the n messages alone.
//
// Run executes the model directly: it buckets each hyperedge to its
// endpoints' players, lets one player at a time ingest its incidence list
// and frame its vertex share, and has the referee verify and merge each
// frame as it arrives. Because every sketch in this repository is
// vertex-based, player P_v evaluates exactly vertex v's share of the
// sketch from its own input, and the referee reassembles the full sketch
// by linear merging. Messages travel as codec share frames — the
// envelope's fingerprint is how the referee detects a player operating
// under different public randomness (codec.ErrFingerprint) instead of
// merging garbage — and the run reports both the paper-faithful interior
// sizes (the share bytes the communication bounds are stated in) and the
// framed totals including envelope overhead. The same vertex sharding
// over vertex ranges and TCP is the cmd/gsd cluster (internal/shardplane);
// commsim is the model, the cluster is the deployment.
package commsim

import (
	"fmt"

	"graphsketch/internal/codec"
	"graphsketch/internal/graph"
)

// Protocol is a vertex-based sketch viewed as a one-round protocol: a
// player instance consumes the updates incident to its vertex and emits
// its framed vertex share; a referee instance verifies and absorbs share
// frames. All sketches in internal/sketch and internal/core satisfy this.
type Protocol interface {
	// UpdateBatchRange applies the batch restricted to endpoints in
	// [lo, hi) — the player's view of its incidence list.
	UpdateBatchRange(batch []graph.WeightedEdge, lo, hi int) error
	// VertexShareFrame frames vertex v's share with the sketch's identity
	// fingerprint (codec.KindShare).
	VertexShareFrame(v int) []byte
	// AddVertexShareFrame verifies one share frame from the front of data
	// — rejecting cross-identity frames with codec.ErrFingerprint — and
	// merges it, returning the remaining bytes.
	AddVertexShareFrame(data []byte) ([]byte, error)
}

// Result reports the communication cost of a run. MaxMessageBytes and
// TotalBytes count share interiors only — the sketch bytes the paper's
// communication bounds are stated in. The Framed fields additionally count
// the codec envelope (codec.ShareOverhead per message) that a deployed
// protocol actually puts on the wire.
type Result struct {
	Players         int
	MaxMessageBytes int
	TotalBytes      int
	// FramedMaxMessageBytes and FramedTotalBytes include the per-message
	// envelope: framed = interior + codec.ShareOverhead.
	FramedMaxMessageBytes int
	FramedTotalBytes      int
}

// MeanMessageBytes returns the average interior message size.
func (r Result) MeanMessageBytes() float64 {
	if r.Players == 0 {
		return 0
	}
	return float64(r.TotalBytes) / float64(r.Players)
}

// EnvelopeBytes returns the total envelope overhead of the run.
func (r Result) EnvelopeBytes() int { return r.FramedTotalBytes - r.TotalBytes }

// Run executes the protocol on hypergraph h: one fresh player sketch per
// vertex (same public randomness — newPlayer must construct
// identically-seeded instances) receives exactly the hyperedges incident
// to its vertex, frames its share, and the referee verifies and merges
// every frame. Players run one at a time, so only one is alive at once.
// After Run returns, the referee holds precisely the sketch of h and can
// be decoded by the caller. A player whose public randomness differs from
// the referee's is rejected with codec.ErrFingerprint rather than
// silently corrupting the merge; the first rejection aborts the run and
// is counted in commsim_shares_rejected_total, and the accounting covers
// the messages sent up to and including the rejected one.
//
// Correctness relies on linearity: each hyperedge e is routed to |e|
// players, player P_v accumulates only vertex v's samplers, and the merged
// referee state equals the single-machine sketch of h.
func Run(h *graph.Hypergraph, newPlayer func() Protocol, referee Protocol) (Result, error) {
	n := h.N()
	res := Result{Players: n}
	inc := make([][]graph.WeightedEdge, n)
	for _, we := range h.WeightedEdges() {
		for _, v := range we.E {
			inc[v] = append(inc[v], we)
		}
	}
	messages := 0
	var runErr error
	for v := 0; v < n; v++ {
		player := newPlayer()
		if err := player.UpdateBatchRange(inc[v], v, v+1); err != nil {
			return Result{Players: n}, fmt.Errorf("commsim: player %d: %w", v, err)
		}
		msg := player.VertexShareFrame(v)
		messages++
		res.FramedTotalBytes += len(msg)
		res.FramedMaxMessageBytes = max(res.FramedMaxMessageBytes, len(msg))
		rest, err := referee.AddVertexShareFrame(msg)
		if err == nil && len(rest) != 0 {
			err = fmt.Errorf("share frame left %d trailing bytes", len(rest))
		}
		if err != nil {
			runErr = fmt.Errorf("commsim: referee: share for vertex %d: %w", v, err)
			break
		}
	}

	// The model's accounting, interior = framed − envelope per message.
	res.TotalBytes = res.FramedTotalBytes - messages*codec.ShareOverhead
	if res.FramedMaxMessageBytes > 0 {
		res.MaxMessageBytes = res.FramedMaxMessageBytes - codec.ShareOverhead
	}
	cm.messages.Add(int64(messages))
	cm.bytes.Add(int64(res.TotalBytes))
	cm.framedBytes.Add(int64(res.FramedTotalBytes))
	if runErr != nil {
		cm.rejected.Inc()
		return res, runErr
	}
	return res, nil
}
