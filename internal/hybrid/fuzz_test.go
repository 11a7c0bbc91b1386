package hybrid_test

import (
	"bytes"
	"testing"

	"graphsketch/internal/codec"
	"graphsketch/internal/graph"
	"graphsketch/internal/hybrid"
	"graphsketch/internal/sketch"
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

// FuzzHybridUnmarshal feeds arbitrary bytes to the hybrid state decoder —
// both the constructed path (Unmarshal on a live sketch) and the shell path
// (codec.Open on a full frame with fuzzed state). Neither may panic, and a
// corrupted state must never be half-applied silently: every failure is an
// error return.
func FuzzHybridUnmarshal(f *testing.F) {
	seedHy := fuzzHybrid(f)
	good := seedHy.Marshal()
	f.Add(good)
	f.Add([]byte(nil))
	f.Add(good[:len(good)/2])
	f.Add(append(append([]byte(nil), good...), 0xFF))
	mut := append([]byte(nil), good...)
	mut[0] ^= 0x40 // corrupt the embedded inner frame length
	f.Add(mut)
	f.Fuzz(func(t *testing.T, state []byte) {
		hy := fuzzHybrid(t)
		if err := hy.Unmarshal(state); err == nil {
			// Accepted states must re-marshal without panicking.
			_ = hy.Marshal()
		}
		// Shell path: the same bytes as the state of a well-formed frame.
		frame := codec.AppendCheckpoint(nil, codec.TagHybrid, codec.AppendUint64s(nil, 4, 0),
			len(state), func(b []byte) []byte { return append(b, state...) })
		if s, err := codec.Open(bytes.NewReader(frame)); err == nil {
			_ = s.Marshal()
		}
	})
}
