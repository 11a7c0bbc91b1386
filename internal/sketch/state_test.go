package sketch

import (
	"bytes"
	"io"
	"math/rand/v2"
	"runtime"
	"testing"

	"graphsketch/internal/codec"
	"graphsketch/internal/graph"
)

// stateOf returns s's state, the interior of its checkpoint frame: its
// shares in vertex order.
func stateOf(s Sharer) []byte {
	var b []byte
	for v := 0; v < s.NumVertices(); v++ {
		b = AppendShare(s, b, v)
	}
	return b
}

// addBytes merges a raw state into s as ReadFrom does: from a verified
// checkpoint frame, through Shares.Add.
func addBytes(s Sharer, state []byte) error {
	params := codec.AppendUint64s(nil, 1)
	var frame bytes.Buffer
	if _, err := codec.WriteCheckpoint(&frame, codec.TagSpanning, params, len(state), func(fw *codec.FrameWriter) error {
		_, err := fw.Write(state)
		return err
	}); err != nil {
		return err
	}
	_, err := codec.ReadCheckpoint(&frame, codec.TagSpanning, codec.Fingerprint(codec.TagSpanning, params), Shares{s}.Add)
	return err
}

func TestSpanningStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 1))
	h := randomGraph(rng, 20, 50)
	const seed = 9
	a := NewSpanning(seed, h.Domain(), SpanningConfig{})
	if err := a.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	state := stateOf(a)

	// Restore into a fresh sketch and continue streaming.
	b := NewSpanning(seed, h.Domain(), SpanningConfig{})
	if err := addBytes(b, state); err != nil {
		t.Fatal(err)
	}
	extra := graph.MustEdge(0, 19)
	if err := a.Update(extra, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Update(extra, 1); err != nil {
		t.Fatal(err)
	}
	fa, errA := a.Decode(nil)
	fb, errB := b.Decode(nil)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !fa.Equal(fb) {
		t.Fatal("restored sketch decodes differently")
	}
}

func TestSpanningStateMergesTwoStreams(t *testing.T) {
	// Checkpoint merging = distributed aggregation: two machines each
	// process half the stream; states add.
	rng := rand.New(rand.NewPCG(32, 1))
	h := randomGraph(rng, 16, 40)
	const seed = 4
	m1 := NewSpanning(seed, h.Domain(), SpanningConfig{})
	m2 := NewSpanning(seed, h.Domain(), SpanningConfig{})
	for i, e := range h.Edges() {
		target := m1
		if i%2 == 1 {
			target = m2
		}
		if err := target.Update(e, 1); err != nil {
			t.Fatal(err)
		}
	}
	agg := NewSpanning(seed, h.Domain(), SpanningConfig{})
	if err := addBytes(agg, stateOf(m1)); err != nil {
		t.Fatal(err)
	}
	if err := addBytes(agg, stateOf(m2)); err != nil {
		t.Fatal(err)
	}
	f, err := agg.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range f.Edges() {
		if !h.Has(e) {
			t.Fatalf("aggregated decode fabricated edge %v", e)
		}
	}
	sameConnectivity(t, h, f, "aggregated state")
}

func TestSkeletonStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 1))
	h := randomGraph(rng, 12, 30)
	const seed = 5
	a := mustSkeleton(SkeletonParams{N: h.N(), R: h.Domain().R(), K: 2, Seed: seed})
	if err := a.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	b := mustSkeleton(SkeletonParams{N: h.N(), R: h.Domain().R(), K: 2, Seed: seed})
	if err := addBytes(b, stateOf(a)); err != nil {
		t.Fatal(err)
	}
	sa, errA := a.Decode(nil)
	sb, errB := b.Decode(nil)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !sa.Equal(sb) {
		t.Fatal("restored skeleton decodes differently")
	}
}

func TestAddStateRejectsTruncated(t *testing.T) {
	dom := graph.MustDomain(8, 2)
	a := NewSpanning(1, dom, SpanningConfig{})
	if err := a.Update(graph.MustEdge(0, 1), 1); err != nil {
		t.Fatal(err)
	}
	state := stateOf(a)
	if ends := (Shares{a}).fan().ends(); len(state) != ends[len(ends)-1] {
		t.Fatalf("state of %d bytes, ends says %d", len(state), ends[len(ends)-1])
	}
	b := NewSpanning(1, dom, SpanningConfig{})
	if err := addBytes(b, state[:len(state)-3]); err == nil {
		t.Fatal("truncated state accepted")
	}
	if err := addBytes(b, append(state, 0xff)); err == nil {
		t.Fatal("over-long state accepted")
	}
}

// TestSpanningWriteToAllocation pins the streaming checkpoint writer: WriteTo
// passes the frame through one buffer no longer than the frame (and a few
// hundred KiB for a long one), so it allocates at most about the frame's
// own bytes.
func TestSpanningWriteToAllocation(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 1))
	h := randomGraph(rng, 64, 400)
	s := NewSpanning(5, h.Domain(), SpanningConfig{})
	streamInto(t, s, h)
	var frame bytes.Buffer
	if _, err := s.WriteTo(&frame); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := s.WriteTo(io.Discard)
	runtime.ReadMemStats(&after)
	if err != nil || n != int64(frame.Len()) {
		t.Fatalf("WriteTo: %d bytes, %v; want %d", n, err, frame.Len())
	}
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("WriteTo allocated %.3f× its %d-byte frame", ratio, n)
	if ratio > 1.1 {
		t.Fatalf("WriteTo allocated %.2f× its %d-byte frame, want <= 1.1×", ratio, n)
	}
}
