package oracle

import (
	"bytes"
	"fmt"

	"graphsketch"
	"graphsketch/internal/codec"
	"graphsketch/internal/graph"
	"graphsketch/internal/obs"
	"graphsketch/internal/shardplane"
)

// ForCoordinator serves queries from a TCP shard plane instead of a local
// sketch: mutations route through the transport to the shards, and a
// dirty-epoch rebuild gathers the shards' state into a fresh sketch and
// decodes it. proto is the plane's construction template (the same fresh
// prototype the transport was dialed with); its checkpoint frame is
// captured once and codec.Open reconstructs a pristine gather destination
// per rebuild, so repeated rebuilds never double-merge shard state.
//
// The usual oracle epoch contract applies unchanged: Connected/
// DisconnectedBy hit the cached snapshot while the epoch matches, and the
// single-flight rebuild pays one gather + decode per dirty epoch — one
// checkpoint pull per shard, the cluster analogue of one local decode.
func ForCoordinator(tr *shardplane.TCPTransport, proto shardplane.Member) (*Oracle, error) {
	var buf bytes.Buffer
	if _, err := proto.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("oracle: checkpointing coordinator prototype: %w", err)
	}
	frame := buf.Bytes()
	// Fail at construction, not first query, if the prototype's type has
	// no decode route.
	probe, err := codec.Open(bytes.NewBuffer(frame))
	if err != nil {
		return nil, fmt.Errorf("oracle: reopening coordinator prototype: %w", err)
	}
	if _, ok := probe.(Decoder); !ok {
		return nil, fmt.Errorf("oracle: no coordinator decode route for %T: %w", probe, ErrNoDecodeRoute)
	}
	cfg := Config{
		Sketch: &transportSketch{tr: tr},
		N:      proto.NumVertices(),
		Decode: func(sp *obs.Span) (*graph.Hypergraph, error) {
			fresh, err := codec.Open(bytes.NewBuffer(frame))
			if err != nil {
				return nil, fmt.Errorf("oracle: opening gather destination: %w", err)
			}
			if err := tr.Gather(fresh); err != nil {
				return nil, fmt.Errorf("oracle: gathering shards: %w", err)
			}
			return fresh.(Decoder).Decode(sp)
		},
	}
	// The removal cap is For's: the gathered sketch is the probe's twin.
	if m, ok := probe.(interface{ MaxRemove() int }); ok {
		cfg.MaxRemove = m.MaxRemove()
	}
	return New(cfg)
}

// transportSketch adapts a shardplane.Transport to the mutation surface
// Config.Sketch requires: updates route to the shards (and, via the
// oracle, advance the epoch). The state lives on the shards, so merging
// into a coordinator proxy is refused — it would silently bypass the
// plane.
type transportSketch struct {
	tr shardplane.Transport

	// one is Update's single-edge scratch; the oracle serializes mutations
	// under its rebuild lock, so no extra locking is needed here.
	one [1]graph.WeightedEdge
}

func (t *transportSketch) Update(e graph.Hyperedge, delta int64) error {
	t.one[0] = graph.WeightedEdge{E: e, W: delta}
	return t.tr.Route(t.one[:])
}

func (t *transportSketch) UpdateBatch(batch []graph.WeightedEdge) error {
	return t.tr.Route(batch)
}

func (t *transportSketch) Merge(o graphsketch.Sketch) error {
	return fmt.Errorf("oracle: coordinator proxy cannot merge: %w", graphsketch.ErrMergeMismatch)
}

func (t *transportSketch) Words() int { return 0 }
