package l0

import "testing"

// Levels allocate lazily on first touch; once a key's level exists, the
// update fan-out (one DeltaTerms computation, one ApplyDelta per level) must
// not allocate at all. This is the contract the spanning sketches rely on
// for zero steady-state garbage during stream ingestion.
func TestSamplerUpdateZeroAllocs(t *testing.T) {
	s := New(0x5eed, 1<<20, Config{})
	keys := []uint64{1, 512, 4097, 65535, 1<<20 - 1}
	for _, k := range keys { // warm-up: materialize every level these keys hash to
		s.Update(k, 1)
		s.Update(k, -1)
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, k := range keys {
			s.Update(k, 1)
			s.Update(k, -1)
		}
	})
	if allocs != 0 {
		t.Fatalf("Sampler.Update allocates %.1f objects per run; want 0", allocs)
	}
}

// Sample uses pooled decode scratch: it reads each level's recovered
// coordinates from a pooled buffer, so after warm-up it allocates nothing
// (checked without the race detector, which makes sync.Pool drop objects
// on purpose).
func TestSamplerQueryBoundedAllocs(t *testing.T) {
	s := New(0x5eed+1, 1<<20, Config{})
	for i := uint64(1); i <= 4; i++ {
		s.Update(i*i*31, 1)
	}
	if _, _, ok := s.Sample(); !ok {
		t.Fatal("warm-up sample failed")
	}
	sampleAllocs := testing.AllocsPerRun(50, func() {
		if _, _, ok := s.Sample(); !ok {
			t.Fatal("sample failed")
		}
	})
	if sampleAllocs != 0 && !raceEnabled {
		t.Fatalf("Sampler.Sample allocates %.1f objects per run; want 0", sampleAllocs)
	}
}
