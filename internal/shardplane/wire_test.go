package shardplane

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"graphsketch/internal/codec"
	"graphsketch/internal/graph"
)

func TestHelloRoundTrip(t *testing.T) {
	ckpt := []byte{0xde, 0xad, 0xbe, 0xef}
	in := helloPayload{Shard: 2, Shards: 5, Lo: 12, Hi: 30, Ckpt: ckpt}
	got, err := parseHello(appendHello(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if got.Shard != in.Shard || got.Shards != in.Shards || got.Lo != in.Lo || got.Hi != in.Hi {
		t.Fatalf("hello roundtrip: got %+v, want %+v", got, in)
	}
	if string(got.Ckpt) != string(ckpt) {
		t.Fatalf("hello checkpoint roundtrip: got %x", got.Ckpt)
	}

	if _, err := parseHello(appendHello(nil, in)[:10]); !errors.Is(err, codec.ErrTruncated) {
		t.Fatalf("truncated hello: got %v, want ErrTruncated", err)
	}
	for _, bad := range []helloPayload{
		{Shard: 0, Shards: 0},               // no shards at all
		{Shard: 3, Shards: 3},               // index out of range
		{Shard: 0, Shards: 1, Lo: 9, Hi: 3}, // inverted range
	} {
		if _, err := parseHello(appendHello(nil, bad)); err == nil {
			t.Fatalf("parseHello accepted invalid assignment %+v", bad)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	in := []graph.WeightedEdge{
		{E: graph.MustEdge(0, 7), W: 1},
		{E: graph.Hyperedge{1, 4, 9}, W: -3},
		{E: graph.MustEdge(2, 3), W: 1 << 40},
	}
	p := appendBatch(nil, in)
	got, err := parseBatch(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("batch roundtrip: %d edges, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i].W != in[i].W || len(got[i].E) != len(in[i].E) {
			t.Fatalf("edge %d: got %v, want %v", i, got[i], in[i])
		}
		for j := range in[i].E {
			if got[i].E[j] != in[i].E[j] {
				t.Fatalf("edge %d: got %v, want %v", i, got[i], in[i])
			}
		}
	}

	// The parser appends onto its destination (the server session reuses
	// one scratch slice across frames).
	again, err := parseBatch(got[:0], p)
	if err != nil || len(again) != len(in) {
		t.Fatalf("reused-scratch parse: %d edges, %v", len(again), err)
	}

	if _, err := parseBatch(nil, p[:len(p)-3]); !errors.Is(err, codec.ErrTruncated) {
		t.Fatalf("truncated batch: got %v, want ErrTruncated", err)
	}
	if _, err := parseBatch(nil, append(p, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := parseBatch(nil, p[:2]); !errors.Is(err, codec.ErrTruncated) {
		t.Fatalf("short header: got %v, want ErrTruncated", err)
	}
}

func TestAckRoundTrip(t *testing.T) {
	if err := parseAck(appendAck(nil, nil)); err != nil {
		t.Fatalf("ok ack: %v", err)
	}
	err := parseAck(appendAck(nil, errors.New("sampler refused")))
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("error ack: got %v, want ErrRemote", err)
	}
	if want := "sampler refused"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("error ack lost the shard's message: %v", err)
	}
	if err := parseAck(nil); !errors.Is(err, codec.ErrTruncated) {
		t.Fatalf("empty ack: got %v, want ErrTruncated", err)
	}
}

// FuzzWirePayloads feeds arbitrary bytes to the three payload parsers a
// shard server and its coordinator read off the network. None may panic,
// every rejection must be typed, and every accepted payload must survive
// its encoder: hello and batch re-encode to the exact input bytes, and an
// ack re-encodes to a payload that parses to the same outcome.
func FuzzWirePayloads(f *testing.F) {
	f.Add(appendHello(nil, helloPayload{Shard: 1, Shards: 3, Lo: 8, Hi: 16, Ckpt: []byte("GSKF")}))
	f.Add(appendBatch(nil, []graph.WeightedEdge{
		{E: graph.MustEdge(0, 7), W: 1},
		{E: graph.Hyperedge{1, 4, 9}, W: -3},
	}))
	f.Add(appendBatch(nil, nil))
	f.Add(appendAck(nil, nil))
	f.Add(appendAck(nil, errors.New("shard: vertex 9 out of range")))
	f.Fuzz(func(t *testing.T, p []byte) {
		typed := func(what string, err error) {
			if !errors.Is(err, codec.ErrTruncated) && !errors.Is(err, ErrBadPayload) {
				t.Fatalf("%s rejected with an untyped error: %v", what, err)
			}
		}
		if h, err := parseHello(p); err != nil {
			typed("hello", err)
		} else if got := appendHello(nil, h); !bytes.Equal(got, p) {
			t.Fatalf("hello %+v re-encodes to %x, want %x", h, got, p)
		}
		if batch, err := parseBatch(nil, p); err != nil {
			typed("batch", err)
		} else if got := appendBatch(nil, batch); !bytes.Equal(got, p) {
			t.Fatalf("batch of %d edges re-encodes to %x, want %x", len(batch), got, p)
		}
		err := parseAck(p)
		if len(p) < 4 {
			typed("ack", err)
			return
		}
		var again error
		if err == nil {
			again = parseAck(appendAck(nil, nil))
		} else {
			if !errors.Is(err, ErrRemote) {
				t.Fatalf("error ack does not wrap ErrRemote: %v", err)
			}
			again = parseAck(appendAck(nil, errors.New(string(p[4:]))))
		}
		if (err == nil) != (again == nil) || (err != nil && err.Error() != again.Error()) {
			t.Fatalf("ack %q re-parses as %v, want %v", p, again, err)
		}
	})
}
