package shardplane

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"graphsketch/internal/codec"
	"graphsketch/internal/graph"
)

// The cluster protocol is strict request-response over one TCP connection
// per shard, every message a codec frame (checksummed, version-gated,
// fingerprinted), so a torn write, a misdialed port, or a shard running
// under different public randomness all fail typed instead of corrupting
// state:
//
//	coordinator → shard   KindHello  shard assignment + embedded checkpoint frame
//	shard → coordinator   KindAck    status + error text
//	coordinator → shard   KindBatch  the shard's sub-batch of one routed batch
//	shard → coordinator   KindAck
//	coordinator → shard   KindPull   (empty payload)
//	shard → coordinator   KindCheckpoint  the shard's full state frame
//
// The frame Tag and Fingerprint of every session message are the member
// sketch's, binding the whole session to one sketch identity.

// ErrRemote wraps an application-level failure reported by a shard's ack.
var ErrRemote = errors.New("shardplane: shard reported error")

// ackStatus values carried in a KindAck payload.
const (
	ackOK    = 0
	ackError = 1
)

// helloPayload assigns a shard its place in the plane and carries the
// checkpoint frame it constructs (or restores) its member sketch from.
type helloPayload struct {
	Shard  uint32 // this shard's index
	Shards uint32 // total shard count
	Lo, Hi uint32 // owned vertex range [Lo, Hi)
	Ckpt   []byte // embedded codec checkpoint frame
}

func appendHello(dst []byte, h helloPayload) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, h.Shard)
	dst = binary.LittleEndian.AppendUint32(dst, h.Shards)
	dst = binary.LittleEndian.AppendUint32(dst, h.Lo)
	dst = binary.LittleEndian.AppendUint32(dst, h.Hi)
	return append(dst, h.Ckpt...)
}

func parseHello(p []byte) (helloPayload, error) {
	if len(p) < 16 {
		return helloPayload{}, fmt.Errorf("shardplane: hello payload %d bytes: %w", len(p), codec.ErrTruncated)
	}
	h := helloPayload{
		Shard:  binary.LittleEndian.Uint32(p[0:4]),
		Shards: binary.LittleEndian.Uint32(p[4:8]),
		Lo:     binary.LittleEndian.Uint32(p[8:12]),
		Hi:     binary.LittleEndian.Uint32(p[12:16]),
		Ckpt:   p[16:],
	}
	if h.Shards == 0 || h.Shard >= h.Shards || h.Lo > h.Hi {
		return helloPayload{}, fmt.Errorf("shardplane: hello assigns shard %d/%d range [%d,%d): %w", h.Shard, h.Shards, h.Lo, h.Hi, ErrBadPayload)
	}
	return h, nil
}

// appendBatch encodes a batch payload: a u32 edge count, then per edge a
// u8 arity, arity little-endian u32 vertices, and a u64 weight
// (two's-complement int64). Vertex counts fit u32 by construction — the
// codec caps payloads at 1 GiB long before 2^32 vertices.
func appendBatch(dst []byte, batch []graph.WeightedEdge) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(batch)))
	for _, we := range batch {
		dst = append(dst, byte(len(we.E)))
		for _, v := range we.E {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
		}
		dst = binary.LittleEndian.AppendUint64(dst, uint64(we.W))
	}
	return dst
}

// parseBatch decodes a batch payload, appending onto dst (reused across
// frames by the server session).
func parseBatch(dst []graph.WeightedEdge, p []byte) ([]graph.WeightedEdge, error) {
	if len(p) < 4 {
		return dst, fmt.Errorf("shardplane: batch payload %d bytes: %w", len(p), codec.ErrTruncated)
	}
	count := binary.LittleEndian.Uint32(p)
	p = p[4:]
	for i := uint32(0); i < count; i++ {
		if len(p) < 1 {
			return dst, fmt.Errorf("shardplane: batch edge %d missing arity: %w", i, codec.ErrTruncated)
		}
		arity := int(p[0])
		p = p[1:]
		if len(p) < 4*arity+8 {
			return dst, fmt.Errorf("shardplane: batch edge %d short: %w", i, codec.ErrTruncated)
		}
		e := make(graph.Hyperedge, arity)
		for j := 0; j < arity; j++ {
			e[j] = int(binary.LittleEndian.Uint32(p))
			p = p[4:]
		}
		w := int64(binary.LittleEndian.Uint64(p))
		p = p[8:]
		dst = append(dst, graph.WeightedEdge{E: e, W: w})
	}
	if len(p) != 0 {
		return dst, fmt.Errorf("shardplane: batch payload has %d trailing bytes: %w", len(p), ErrBadPayload)
	}
	return dst, nil
}

// appendAck encodes an ack payload: u32 status then error text.
func appendAck(dst []byte, err error) []byte {
	if err == nil {
		return binary.LittleEndian.AppendUint32(dst, ackOK)
	}
	dst = binary.LittleEndian.AppendUint32(dst, ackError)
	return append(dst, err.Error()...)
}

// parseAck decodes an ack payload into the shard's reported error.
func parseAck(p []byte) error {
	if len(p) < 4 {
		return fmt.Errorf("shardplane: ack payload %d bytes: %w", len(p), codec.ErrTruncated)
	}
	if binary.LittleEndian.Uint32(p) == ackOK {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrRemote, p[4:])
}

// writeFrame frames (kind, payload) under the session identity and writes
// it, counting transmitted bytes when obs is enabled.
func writeFrame(w io.Writer, h codec.Header, payload []byte) error {
	n, err := codec.WriteFrame(w, h, payload)
	spm.txBytes.Add(n)
	return err
}

// readFrame reads one frame, counting received bytes when obs is enabled.
func readFrame(r io.Reader) (codec.Header, []byte, error) {
	h, payload, n, err := codec.ReadFrame(r)
	spm.rxBytes.Add(n)
	return h, payload, err
}

// expectKind narrows a received frame to the one kind a strict
// request-response step allows.
func expectKind(h codec.Header, want codec.Kind) error {
	if h.Kind != want {
		return fmt.Errorf("shardplane: expected frame kind %d, got %d: %w", want, h.Kind, codec.ErrUnknownType)
	}
	return nil
}
