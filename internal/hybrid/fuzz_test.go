package hybrid_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"graphsketch/internal/codec"
	"graphsketch/internal/graph"
	"graphsketch/internal/hybrid"
	"graphsketch/internal/sketch"
	"graphsketch/internal/testutil/frametest"
)

// fuzzHybrid builds a small populated hybrid over a spanning inner.
func fuzzHybrid(tb testing.TB) *hybrid.Sketch {
	tb.Helper()
	inner, err := sketch.NewSpanningSketch(sketch.SpanningParams{N: 8, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	hy, err := hybrid.New(inner, 4)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 1; i < 8; i++ {
		if err := hy.Update(graph.MustEdge(0, i), 1); err != nil {
			tb.Fatal(err)
		}
	}
	return hy
}

// hybridFrame wraps state in a well-formed hybrid checkpoint frame whose
// params are hy's.
func hybridFrame(tb testing.TB, hy *hybrid.Sketch, state []byte) []byte {
	_, payload, _, err := codec.DecodeFrame(frametest.Of(tb, hy))
	if err != nil {
		tb.Fatal(err)
	}
	params := payload[4 : 4+binary.LittleEndian.Uint32(payload)]
	var buf bytes.Buffer
	if _, err := codec.WriteCheckpoint(&buf, codec.TagHybrid, params, len(state), func(fw *codec.FrameWriter) error {
		_, err := fw.Write(state)
		return err
	}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzHybridUnmarshal feeds arbitrary state bytes, inside an otherwise
// well-formed checkpoint frame, to both hybrid restore paths: ReadFrom into
// a constructed sketch (a linear add) and codec.Open, which builds the
// empty hybrid its params declare and adds the state. Neither may panic; a
// rejected state must leave the constructed sketch exactly as it was; an
// accepted one must write a frame again and spill every vertex.
func FuzzHybridUnmarshal(f *testing.F) {
	seedHy := fuzzHybrid(f)
	frame := frametest.Of(f, seedHy)
	_, payload, _, err := codec.DecodeFrame(frame)
	if err != nil {
		f.Fatal(err)
	}
	good := payload[4+binary.LittleEndian.Uint32(payload):]
	f.Add(good)
	f.Add([]byte(nil))
	f.Add(good[:len(good)/2])
	f.Add(append(append([]byte(nil), good...), 0xFF))
	// exactAt is the offset of vertex v's exact part: its share's last
	// 4 + 16·BufferLen(v) bytes.
	exactAt := func(v int) int {
		end := 0
		for u := 0; u <= v; u++ {
			end += sketch.ShareSize(seedHy, u)
		}
		return end - 4 - 16*seedHy.BufferLen(v)
	}
	flip := func(v int, mask uint32) []byte {
		mut := bytes.Clone(good)
		i := exactAt(v)
		binary.LittleEndian.PutUint32(mut[i:], binary.LittleEndian.Uint32(mut[i:])^mask)
		return mut
	}
	f.Add(flip(1, 1))          // vertex 1's count 1 → 0: its pair runs on
	f.Add(flip(0, 0xFFFFFFFF)) // vertex 0's spilled mark → an empty buffer
	f.Fuzz(func(t *testing.T, state []byte) {
		hy := fuzzHybrid(t)
		frame := hybridFrame(t, hy, state)
		before := frametest.Of(t, hy)
		if _, err := hy.ReadFrom(bytes.NewReader(frame)); err != nil {
			if !bytes.Equal(frametest.Of(t, hy), before) {
				t.Fatalf("rejected state (%v) changed the sketch", err)
			}
		} else {
			frametest.Of(t, hy)
			if err := hy.SpillAll(); err != nil {
				t.Fatalf("accepted state cannot spill: %v", err)
			}
		}
		if s, err := codec.Open(bytes.NewReader(frame)); err == nil {
			frametest.Of(t, s)
			if err := s.(*hybrid.Sketch).SpillAll(); err != nil {
				t.Fatalf("opened state cannot spill: %v", err)
			}
		}
	})
}
