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
// params (budget 4, the inner's fingerprint) match fuzzHybrid's.
func hybridFrame(hy *hybrid.Sketch, state []byte) []byte {
	params := codec.AppendUint64s(nil, 4, hy.Inner().Fingerprint())
	var buf bytes.Buffer
	if _, err := codec.WriteCheckpoint(&buf, codec.TagHybrid, params, len(state), func(fw *codec.FrameWriter) error {
		_, err := fw.Write(state)
		return err
	}); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzHybridUnmarshal feeds arbitrary state bytes, inside an otherwise
// well-formed checkpoint frame, to both hybrid restore paths: ReadFrom into
// a constructed sketch (a linear add) and codec.Open, which restores into
// the opener's shell. Neither may panic; a rejected state must leave the
// constructed sketch exactly as it was; an accepted one must write a frame
// again.
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
	mut := append([]byte(nil), good...)
	mut[0] ^= 0x40 // corrupt the embedded inner frame length
	f.Add(mut)
	f.Fuzz(func(t *testing.T, state []byte) {
		hy := fuzzHybrid(t)
		frame := hybridFrame(hy, state)
		before := frametest.Of(t, hy)
		if _, err := hy.ReadFrom(bytes.NewReader(frame)); err != nil {
			if !bytes.Equal(frametest.Of(t, hy), before) {
				t.Fatalf("rejected state (%v) changed the sketch", err)
			}
		} else {
			frametest.Of(t, hy)
		}
		if s, err := codec.Open(bytes.NewReader(frame)); err == nil {
			frametest.Of(t, s)
		}
	})
}
