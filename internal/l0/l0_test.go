package l0

import (
	"math"
	"math/rand/v2"
	"testing"
)

const dom = uint64(1) << 32

func TestEmptySampler(t *testing.T) {
	s := New(1, dom, Config{})
	if !s.IsZero() {
		t.Fatal("fresh sampler not zero")
	}
	if _, _, ok := s.Sample(); ok {
		t.Fatal("empty sampler returned a sample")
	}
}

func TestSampleSingleton(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		s := New(seed, dom, Config{})
		s.Update(123456789, 7)
		i, v, ok := s.Sample()
		if !ok || i != 123456789 || v != 7 {
			t.Fatalf("seed %d: Sample = (%d,%d,%v)", seed, i, v, ok)
		}
	}
}

func TestSampleReturnsTrueSupportElement(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	okCount := 0
	for trial := 0; trial < 100; trial++ {
		s := New(uint64(trial), dom, Config{})
		support := map[uint64]int64{}
		n := 1 + rng.IntN(2000)
		for len(support) < n {
			i := rng.Uint64N(dom)
			if _, dup := support[i]; dup {
				continue
			}
			val := int64(rng.IntN(20) - 10)
			if val == 0 {
				val = 1
			}
			support[i] = val
			s.Update(i, val)
		}
		i, v, ok := s.Sample()
		if !ok {
			continue // detected failure is acceptable, must be rare
		}
		okCount++
		want, in := support[i]
		if !in {
			t.Fatalf("trial %d: sampled index %d not in support", trial, i)
		}
		if v != want {
			t.Fatalf("trial %d: sampled value %d, want %d", trial, v, want)
		}
	}
	if okCount < 95 {
		t.Fatalf("only %d/100 samples succeeded", okCount)
	}
}

func TestSampleAfterChurn(t *testing.T) {
	// Insert a large transient set and delete it; the survivor must be
	// sampled.
	s := New(9, dom, Config{})
	rng := rand.New(rand.NewPCG(3, 4))
	var transient []uint64
	for j := 0; j < 5000; j++ {
		i := rng.Uint64N(dom)
		transient = append(transient, i)
		s.Update(i, 1)
	}
	s.Update(42, 5)
	for _, i := range transient {
		s.Update(i, -1)
	}
	i, v, ok := s.Sample()
	if !ok || i != 42 || v != 5 {
		t.Fatalf("Sample after churn = (%d,%d,%v), want (42,5,true)", i, v, ok)
	}
}

func TestCancellationToZero(t *testing.T) {
	s := New(4, dom, Config{})
	rng := rand.New(rand.NewPCG(5, 6))
	var items []uint64
	for j := 0; j < 1000; j++ {
		i := rng.Uint64N(dom)
		items = append(items, i)
		s.Update(i, 3)
	}
	for _, i := range items {
		s.Update(i, -3)
	}
	if !s.IsZero() {
		t.Fatal("fully cancelled sampler not zero")
	}
	if _, _, ok := s.Sample(); ok {
		t.Fatal("cancelled sampler returned a sample")
	}
}

func TestLinearity(t *testing.T) {
	// sketch(A) + sketch(B) must equal sketch(A ∪ B) exactly (same seed).
	a := New(7, dom, Config{})
	b := New(7, dom, Config{})
	both := New(7, dom, Config{})
	rng := rand.New(rand.NewPCG(7, 8))
	for j := 0; j < 500; j++ {
		i := rng.Uint64N(dom)
		v := int64(rng.IntN(9) - 4)
		if v == 0 {
			v = 2
		}
		if j%2 == 0 {
			a.Update(i, v)
		} else {
			b.Update(i, v)
		}
		both.Update(i, v)
	}
	if err := a.AddScaled(b, 1); err != nil {
		t.Fatal(err)
	}
	ia, va, oka := a.Sample()
	ib, vb, okb := both.Sample()
	if oka != okb || ia != ib || va != vb {
		t.Fatalf("merged sample (%d,%d,%v) != direct sample (%d,%d,%v)",
			ia, va, oka, ib, vb, okb)
	}
}

func TestSubtraction(t *testing.T) {
	// The peeling pattern: subtract a known part, sample the remainder.
	full := New(11, dom, Config{})
	part := New(11, dom, Config{})
	for i := uint64(0); i < 300; i++ {
		full.Update(i*1009, 1)
		if i != 77 {
			part.Update(i*1009, 1)
		}
	}
	if err := full.AddScaled(part, -1); err != nil {
		t.Fatal(err)
	}
	i, v, ok := full.Sample()
	if !ok || i != 77*1009 || v != 1 {
		t.Fatalf("Sample after subtraction = (%d,%d,%v)", i, v, ok)
	}
}

func TestAddScaledIncompatible(t *testing.T) {
	a := New(1, dom, Config{})
	b := New(2, dom, Config{})
	if err := a.AddScaled(b, 1); err == nil {
		t.Fatal("different seeds accepted")
	}
	c := New(1, dom, Config{S: 16})
	if err := a.AddScaled(c, 1); err == nil {
		t.Fatal("different configs accepted")
	}
}

func TestCloneIndependent(t *testing.T) {
	s := New(13, dom, Config{})
	s.Update(5, 1)
	cp := s.Clone()
	cp.Update(5, -1)
	if s.IsZero() {
		t.Fatal("mutating clone affected original")
	}
	if !cp.IsZero() {
		t.Fatal("clone did not receive update")
	}
}

func TestSampleUniformity(t *testing.T) {
	// Across independent seeds, each of k support elements should be
	// sampled ~1/k of the time (JST min-hash selection).
	const k = 8
	const trials = 2000
	counts := map[uint64]int{}
	for seed := uint64(0); seed < trials; seed++ {
		s := New(seed, dom, Config{})
		for i := uint64(0); i < k; i++ {
			s.Update(1000+i, 1)
		}
		i, _, ok := s.Sample()
		if !ok {
			continue
		}
		counts[i]++
	}
	want := float64(trials) / k
	for i := uint64(1000); i < 1000+k; i++ {
		got := float64(counts[i])
		if math.Abs(got-want) > 6*math.Sqrt(want) {
			t.Errorf("element %d sampled %v times, want ~%.0f", i, counts[i], want)
		}
	}
}

func TestDecodeSmallSupport(t *testing.T) {
	s := New(17, dom, Config{S: 8})
	for i := uint64(0); i < 5; i++ {
		s.Update(i*31, int64(i+1))
	}
	vec, ok := s.Decode()
	if !ok || len(vec) != 5 {
		t.Fatalf("Decode: ok=%v len=%d", ok, len(vec))
	}
	for i := uint64(0); i < 5; i++ {
		if vec[i*31] != int64(i+1) {
			t.Fatalf("vec[%d] = %d", i*31, vec[i*31])
		}
	}
}

func TestWordsAccounting(t *testing.T) {
	s := New(1, dom, Config{S: 8, Rows: 2, BucketsPerS: 2})
	if s.StateWords() != 0 {
		t.Fatalf("fresh sampler allocated %d state words; levels should be lazy", s.StateWords())
	}
	// The interned randomness is counted apart from the state: a fresh
	// sampler references all of it and holds none of its own.
	shared := s.SharedWords()
	if shared <= 0 {
		t.Fatalf("SharedWords = %d, want > 0", shared)
	}
	s.Update(12345, 1)
	perLevel := 3 + 2*16*3
	w := s.StateWords()
	if w <= 0 || w%perLevel != 0 {
		t.Fatalf("StateWords = %d, not a positive multiple of per-level %d", w, perLevel)
	}
	// A single update allocates at least level 0 and no more than all 33.
	if w < perLevel || w > 33*perLevel {
		t.Fatalf("StateWords = %d outside [%d, %d]", w, perLevel, 33*perLevel)
	}
	if s.SharedWords() != shared {
		t.Fatalf("SharedWords changed on update: %d -> %d", shared, s.SharedWords())
	}
}

// TestSharedWordsInterned pins the family accounting: every same-parameter
// sampler references one interned copy of the seed-derived randomness, so
// SharedWords is the same full figure for each of them (containers count
// it once per family), while a different seed gets its own copy.
func TestSharedWordsInterned(t *testing.T) {
	cfg := Config{S: 4, Rows: 2, BucketsPerS: 3, MaxLevels: 9}
	const seed = 0xa11ce5eed
	s1 := New(seed, dom, cfg)
	shared := s1.SharedWords()
	// 64 ladder words + fingerprint point + level hash (2) + tie seed,
	// plus per-level 2 coefficients per row and the shared point.
	want := 64 + 1 + 2 + 1 + 9*(2*2+1)
	if shared != want {
		t.Fatalf("SharedWords = %d, want %d", shared, want)
	}
	s2 := New(seed, dom, cfg)
	row := NewRow(seed, dom, cfg, 3)
	if s2.sh != s1.sh || row[0].sh != s1.sh || row[2].sh != s1.sh {
		t.Fatal("same-parameter samplers do not share one interned entry")
	}
	if c := s1.Clone(); c.sh != s1.sh || c.SharedWords() != shared {
		t.Fatalf("clone SharedWords = %d, want %d on the same entry", c.SharedWords(), shared)
	}
	s3 := New(seed+1, dom, cfg)
	if s3.sh == s1.sh || s3.SharedWords() != shared {
		t.Fatalf("distinct-seed sampler: shared entry %v, SharedWords %d; want own entry of %d",
			s3.sh == s1.sh, s3.SharedWords(), shared)
	}
}

func TestLazyLevelsGrowWithSupport(t *testing.T) {
	// A sampler that has seen many distinct coordinates allocates more
	// levels than one that has seen few, but far fewer than MaxLevels
	// would cost eagerly.
	small := New(3, dom, Config{})
	big := New(3, dom, Config{})
	small.Update(1, 1)
	rng := rand.New(rand.NewPCG(8, 8))
	for j := 0; j < 10000; j++ {
		big.Update(rng.Uint64N(dom), 1)
	}
	if small.StateWords() >= big.StateWords() {
		t.Fatalf("small sampler (%d words) not smaller than big (%d words)",
			small.StateWords(), big.StateWords())
	}
}

func BenchmarkUpdate(b *testing.B) {
	s := New(1, dom, Config{})
	for i := 0; i < b.N; i++ {
		s.Update(uint64(i)%dom, 1)
	}
}

func BenchmarkSample(b *testing.B) {
	s := New(1, dom, Config{})
	rng := rand.New(rand.NewPCG(1, 2))
	for j := 0; j < 1000; j++ {
		s.Update(rng.Uint64N(dom), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample()
	}
}

func TestAccessors(t *testing.T) {
	s := New(1, dom, Config{S: 4})
	if s.Domain() != dom {
		t.Fatal("Domain accessor wrong")
	}
	if s.Config().S != 4 {
		t.Fatal("Config accessor wrong")
	}
}

func TestBinaryMergeMatchesAddScaled(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	a := New(5, dom, Config{})
	b := New(5, dom, Config{})
	for j := 0; j < 200; j++ {
		i := rng.Uint64N(dom)
		if j%2 == 0 {
			a.Update(i, 1)
		} else {
			b.Update(i, 1)
		}
	}
	// Merge b into a copy of a via bytes, and via AddScaled; compare
	// samples (deterministic given equal state).
	viaBytes := a.Clone()
	rest, err := viaBytes.AddBinary(b.AppendBinary(nil))
	if err != nil || len(rest) != 0 {
		t.Fatal(err, len(rest))
	}
	viaAdd := a.Clone()
	if err := viaAdd.AddScaled(b, 1); err != nil {
		t.Fatal(err)
	}
	i1, v1, ok1 := viaBytes.Sample()
	i2, v2, ok2 := viaAdd.Sample()
	if i1 != i2 || v1 != v2 || ok1 != ok2 {
		t.Fatalf("byte merge (%d,%d,%v) != AddScaled merge (%d,%d,%v)", i1, v1, ok1, i2, v2, ok2)
	}
}

func TestAddBinaryMalformed(t *testing.T) {
	s := New(1, dom, Config{})
	if _, err := s.AddBinary(nil); err == nil {
		t.Fatal("empty buffer accepted")
	}
	if _, err := s.AddBinary([]byte{5}); err == nil {
		t.Fatal("truncated level list accepted")
	}
	if _, err := s.AddBinary([]byte{1, 200}); err == nil {
		t.Fatal("out-of-range level accepted")
	}
}

func TestDecodeFailsOnDenseLevelZero(t *testing.T) {
	// Full decode requires level 0 to be s-sparse; a dense vector fails
	// (detected) rather than returning partial data.
	rng := rand.New(rand.NewPCG(23, 24))
	s := New(9, dom, Config{S: 4})
	for j := 0; j < 500; j++ {
		s.Update(rng.Uint64N(dom), 1)
	}
	if _, ok := s.Decode(); ok {
		t.Fatal("dense vector fully decoded from an S=4 sampler")
	}
}
