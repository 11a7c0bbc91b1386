package recovery

import (
	"testing"

	"graphsketch/internal/field"
)

// The flat cell layout exists so the streaming hot path stays off the
// allocator: every cell write lands in one preallocated slice. Pin that property so a
// refactor cannot silently reintroduce per-update garbage.
func TestSSparseUpdateZeroAllocs(t *testing.T) {
	s := NewSSparse(0xa110c, 1<<20, SSparseConfig{S: 8})
	keys := []uint64{3, 77, 1024, 99999, 1<<20 - 1}
	allocs := testing.AllocsPerRun(200, func() {
		for _, k := range keys {
			s.Update(k, 1)
			s.Update(k, -1)
		}
	})
	if allocs != 0 {
		t.Fatalf("SSparse.Update allocates %.1f objects per run; want 0", allocs)
	}
}

func TestSSparseApplyDeltaZeroAllocs(t *testing.T) {
	s := NewSSparse(0xa110c+1, 1<<20, SSparseConfig{S: 8})
	iRed := field.Reduce(12345)
	zPow := s.Z() // any field element works as a power
	dMom, dFp := DeltaTerms(iRed, zPow, 1)
	allocs := testing.AllocsPerRun(200, func() {
		s.shape.ApplyDelta(s.cells, iRed, 1, dMom, dFp)
		s.shape.ApplyDelta(s.cells, iRed, -1, field.Neg(dMom), field.Neg(dFp))
	})
	if allocs != 0 {
		t.Fatalf("Shape.ApplyDelta allocates %.1f objects per run; want 0", allocs)
	}
}

// Decode borrows its working copy from a sync.Pool, so after warm-up the only
// steady-state allocations are the coordinate slice the peel loop appends to
// and the result map handed to the caller. The bound is deliberately loose
// (slice + map + buckets + pool misses under GC) — what it guards against is
// the pre-SoA behaviour of copying the whole grid per call.
func TestSSparseDecodeBoundedAllocs(t *testing.T) {
	s := NewSSparse(0xa110c+2, 1<<20, SSparseConfig{S: 8})
	for i := uint64(1); i <= 5; i++ {
		s.Update(i*i*7, 1)
	}
	if _, ok := s.Decode(); !ok { // warm the scratch pool
		t.Fatal("warm-up decode failed")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, ok := s.Decode(); !ok {
			t.Fatal("decode failed")
		}
	})
	if allocs > 32 {
		t.Fatalf("SSparse.Decode allocates %.1f objects per run; want <= 32", allocs)
	}
}
