package sketch

import (
	"bytes"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"graphsketch/internal/codec"
)

// An untouched sampler costs no heap object of its own: building an empty
// spanning sketch, and reopening its checkpoint frame, allocate a number
// of objects that depends on the round count but not on n. Rounds are
// pinned so that only n varies between the two sizes.
func TestSpanningEmptyAllocsIndependentOfN(t *testing.T) {
	const rounds = 12
	build := func(n int) *SpanningSketch {
		s, err := NewSpanningSketch(SpanningParams{N: n, Rounds: rounds, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	measure := func(n int) (newAllocs, openAllocs float64) {
		newAllocs = minAllocs(func() { build(n) })
		var frame bytes.Buffer
		if _, err := build(n).WriteTo(&frame); err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(frame.Bytes())
		openAllocs = minAllocs(func() {
			r.Reset(frame.Bytes())
			if _, err := codec.Open(r); err != nil {
				t.Fatal(err)
			}
		})
		return newAllocs, openAllocs
	}
	smallNew, smallOpen := measure(1024)
	bigNew, bigOpen := measure(16384)
	if smallNew != bigNew || smallOpen != bigOpen {
		t.Fatalf("allocations grow with n: NewSpanningSketch %v -> %v, codec.Open %v -> %v (n 1024 -> 16384)",
			smallNew, bigNew, smallOpen, bigOpen)
	}
	// O(Rounds): one row per round plus a constant, not one per sampler.
	if limit := float64(4*rounds + 32); bigNew > limit || bigOpen > limit {
		t.Fatalf("NewSpanningSketch %v, codec.Open %v allocations; want <= %v", bigNew, bigOpen, limit)
	}
	t.Logf("allocations: NewSpanningSketch %v, codec.Open %v", bigNew, bigOpen)
}

// minAllocs is the fewest heap objects f allocated over ten single runs,
// each started from a fresh heap with the collector paused. A run that
// overlaps a GC cycle can pick up runtime-internal allocations; the
// minimum is f's own deterministic count.
func minAllocs(f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := math.Inf(1)
	for i := 0; i < 10; i++ {
		runtime.GC()
		least = min(least, testing.AllocsPerRun(1, f))
	}
	return least
}
