package sketch

import (
	"bytes"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"graphsketch/internal/codec"
	"graphsketch/internal/workload"
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

// A spanning decode sums each component's cut into scratch it allocates
// once per call, samples in place, and groups components without maps, so
// its allocation count is the forest, the DSU and a constant, not one
// sampler copy and one result map per component per round. The bound is a
// third of the 789 objects the decode took when every component cut was a
// fresh clone.
func TestSpanningDecodeAllocs(t *testing.T) {
	h := workload.MustHarary(64, 8)
	s := NewSpanning(3, h.Domain(), SpanningConfig{})
	if err := s.UpdateGraph(h, 1); err != nil {
		t.Fatal(err)
	}
	allocs := minAllocs(func() {
		if _, err := s.Decode(nil); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 789.0 / 3; allocs > limit {
		t.Fatalf("spanning decode of H_{8,64} allocates %v objects; want <= %v", allocs, limit)
	}
	t.Logf("spanning decode allocations: %v", allocs)
}
