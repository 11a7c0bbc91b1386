package recovery

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"graphsketch/internal/field"
)

const testDomain = 1 << 20

// update applies f[i] += delta to a lone 1-sparse cell whose fingerprint
// point is z, as Shape.ApplyDelta does to every cell it touches.
func update(c *Cell, z field.Elem, i uint64, delta int64) {
	dMom, dFp := DeltaTerms(field.Reduce(i), field.Pow(z, i), delta)
	c.add(delta, dMom, dFp)
}

func TestOneSparseZero(t *testing.T) {
	var c Cell
	if !c.IsZero() {
		t.Fatal("fresh cell not zero")
	}
	if _, _, ok := c.decode(FingerprintPoint(1), testDomain); ok {
		t.Fatal("zero cell decoded")
	}
}

func TestOneSparseSingle(t *testing.T) {
	z := FingerprintPoint(2)
	for _, tc := range []struct {
		i uint64
		v int64
	}{{0, 1}, {1, -3}, {testDomain - 1, 7}, {12345, 1000000}} {
		var c Cell
		update(&c, z, tc.i, tc.v)
		i, v, ok := c.decode(z, testDomain)
		if !ok || i != tc.i || v != tc.v {
			t.Fatalf("decode = (%d,%d,%v), want (%d,%d,true)", i, v, ok, tc.i, tc.v)
		}
	}
}

func TestOneSparseInsertDelete(t *testing.T) {
	z := FingerprintPoint(3)
	var c Cell
	update(&c, z, 5, 1)
	update(&c, z, 9, 1)
	update(&c, z, 5, -1)
	i, v, ok := c.decode(z, testDomain)
	if !ok || i != 9 || v != 1 {
		t.Fatalf("after cancel: got (%d,%d,%v), want (9,1,true)", i, v, ok)
	}
	update(&c, z, 9, -1)
	if !c.IsZero() {
		t.Fatal("fully cancelled cell not zero")
	}
}

func TestOneSparseRejectsMultiple(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for trial := 0; trial < 500; trial++ {
		z := FingerprintPoint(uint64(trial))
		var c Cell
		n := 2 + rng.IntN(10)
		seen := map[uint64]bool{}
		for j := 0; j < n; j++ {
			i := rng.Uint64N(testDomain)
			for seen[i] {
				i = rng.Uint64N(testDomain)
			}
			seen[i] = true
			update(&c, z, i, 1+int64(rng.IntN(5)))
		}
		if _, _, ok := c.decode(z, testDomain); ok {
			t.Fatalf("trial %d: %d-sparse vector decoded as 1-sparse", trial, n)
		}
	}
}

func TestOneSparseZeroCountNonzeroVector(t *testing.T) {
	// Two coordinates with cancelling values: count is 0 but the vector is
	// not zero; IsZero must say no and decode must say no.
	z := FingerprintPoint(11)
	var c Cell
	update(&c, z, 3, 5)
	update(&c, z, 8, -5)
	if c.IsZero() {
		t.Fatal("cancelling-count vector reported zero")
	}
	if _, _, ok := c.decode(z, testDomain); ok {
		t.Fatal("cancelling-count vector decoded as 1-sparse")
	}
}

func TestOneSparseAddScaled(t *testing.T) {
	z := FingerprintPoint(5)
	a, b := make([]Cell, 1), make([]Cell, 1)
	update(&a[0], z, 10, 2)
	update(&b[0], z, 10, 2)
	update(&b[0], z, 20, 3)
	// a=2@10, b=2@10+3@20; a-b = -3@20.
	AddCells(a, b, -1)
	i, v, ok := a[0].decode(z, testDomain)
	if !ok || i != 20 || v != -3 {
		t.Fatalf("got (%d,%d,%v), want (20,-3,true)", i, v, ok)
	}
}

// A cell carries no seed or domain; the structure holding it checks that
// two of them may be added.
func TestOneSparseAddScaledIncompatible(t *testing.T) {
	a := NewSSparse(1, testDomain, SSparseConfig{S: 1})
	if err := a.AddScaled(NewSSparse(2, testDomain, SSparseConfig{S: 1}), 1); err == nil {
		t.Fatal("expected incompatibility error for different seeds")
	}
	if err := a.AddScaled(NewSSparse(1, testDomain/2, SSparseConfig{S: 1}), 1); err == nil {
		t.Fatal("expected incompatibility error for different domains")
	}
}

// A cell carries no domain; the structure holding it refuses an index
// outside its domain.
func TestOneSparseOutOfDomainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-domain update did not panic")
		}
	}()
	NewSSparse(1, 10, SSparseConfig{S: 1}).Update(10, 1)
}

func TestOneSparseLinearityProperty(t *testing.T) {
	// sketch(x) + sketch(y) == sketch(x+y) for random sparse vectors.
	z := FingerprintPoint(9)
	f := func(idxA, idxB uint64, vA, vB int16) bool {
		ia, ib := idxA%testDomain, idxB%testDomain
		a, b, sum := make([]Cell, 1), make([]Cell, 1), make([]Cell, 1)
		update(&a[0], z, ia, int64(vA))
		update(&b[0], z, ib, int64(vB))
		update(&sum[0], z, ia, int64(vA))
		update(&sum[0], z, ib, int64(vB))
		AddCells(a, b, 1)
		return a[0] == sum[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randSparseVector(rng *rand.Rand, n int, domain uint64) map[uint64]int64 {
	vec := make(map[uint64]int64, n)
	for len(vec) < n {
		i := rng.Uint64N(domain)
		if _, dup := vec[i]; dup {
			continue
		}
		v := int64(rng.IntN(200) - 100)
		if v == 0 {
			v = 1
		}
		vec[i] = v
	}
	return vec
}

func TestSSparseRecovery(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	cfg := SSparseConfig{S: 8}
	failures := 0
	for trial := 0; trial < 200; trial++ {
		ss := NewSSparse(uint64(trial), testDomain, cfg)
		n := rng.IntN(9) // 0..8 nonzeros, all within design sparsity
		vec := randSparseVector(rng, n, testDomain)
		for i, v := range vec {
			ss.Update(i, v)
		}
		got, ok := ss.Decode()
		if !ok {
			// Peeling has a small inherent failure probability (handled
			// by repetition at higher layers); what matters is that
			// failures are *detected* and rare.
			failures++
			if failures > 4 {
				t.Fatalf("too many decode failures (%d) on in-design vectors", failures)
			}
			continue
		}
		if len(got) != len(vec) {
			t.Fatalf("trial %d: got %d coords, want %d", trial, len(got), len(vec))
		}
		for i, v := range vec {
			if got[i] != v {
				t.Fatalf("trial %d: coord %d = %d, want %d", trial, i, got[i], v)
			}
		}
	}
}

func TestSSparseDetectsOverflow(t *testing.T) {
	// Way above design sparsity: decode must fail (return !ok), never
	// return a wrong vector.
	rng := rand.New(rand.NewPCG(2, 2))
	cfg := SSparseConfig{S: 4}
	failures := 0
	for trial := 0; trial < 100; trial++ {
		ss := NewSSparse(uint64(trial), testDomain, cfg)
		vec := randSparseVector(rng, 64, testDomain)
		for i, v := range vec {
			ss.Update(i, v)
		}
		got, ok := ss.Decode()
		if !ok {
			failures++
			continue
		}
		// A (lucky) success must still be exactly correct.
		if len(got) != len(vec) {
			t.Fatalf("trial %d: certified decode returned wrong size", trial)
		}
		for i, v := range vec {
			if got[i] != v {
				t.Fatalf("trial %d: certified decode returned wrong value", trial)
			}
		}
	}
	if failures < 95 {
		t.Fatalf("only %d/100 overloaded decodes failed; expected nearly all", failures)
	}
}

func TestSSparseInsertDeleteChurn(t *testing.T) {
	// Heavy churn that cancels down to a small survivor set.
	rng := rand.New(rand.NewPCG(3, 3))
	ss := NewSSparse(42, testDomain, SSparseConfig{S: 8})
	survivors := randSparseVector(rng, 6, testDomain)
	// Insert 1000 transient coordinates and delete them all.
	transient := randSparseVector(rng, 1000, testDomain)
	for i, v := range transient {
		ss.Update(i, v)
	}
	for i, v := range survivors {
		ss.Update(i, v)
	}
	for i, v := range transient {
		ss.Update(i, -v)
	}
	got, ok := ss.Decode()
	if !ok {
		t.Fatal("decode failed after churn")
	}
	if len(got) != len(survivors) {
		t.Fatalf("got %d survivors, want %d", len(got), len(survivors))
	}
	for i, v := range survivors {
		if got[i] != v {
			t.Fatalf("survivor %d = %d, want %d", i, got[i], v)
		}
	}
}

func TestSSparseZeroVector(t *testing.T) {
	ss := NewSSparse(1, testDomain, SSparseConfig{S: 4})
	got, ok := ss.Decode()
	if !ok || len(got) != 0 {
		t.Fatal("zero vector should decode to empty map")
	}
	if !ss.IsZero() {
		t.Fatal("IsZero false on fresh structure")
	}
}

func TestSSparseAddScaledPeel(t *testing.T) {
	// The peeling pattern used by the skeleton sketches: subtract a known
	// sub-vector from a sketch and decode the remainder.
	full := NewSSparse(77, testDomain, SSparseConfig{S: 8})
	part := NewSSparse(77, testDomain, SSparseConfig{S: 8})
	for i := uint64(0); i < 12; i++ {
		full.Update(i*97, 1)
	}
	for i := uint64(0); i < 8; i++ { // the part we "already know"
		part.Update(i*97, 1)
	}
	if err := full.AddScaled(part, -1); err != nil {
		t.Fatal(err)
	}
	got, ok := full.Decode()
	if !ok || len(got) != 4 {
		t.Fatalf("peeled decode: ok=%v len=%d, want 4 coords", ok, len(got))
	}
	for i := uint64(8); i < 12; i++ {
		if got[i*97] != 1 {
			t.Fatalf("missing coord %d", i*97)
		}
	}
}

func TestSSparseAddScaledIncompatible(t *testing.T) {
	a := NewSSparse(1, testDomain, SSparseConfig{S: 4})
	b := NewSSparse(2, testDomain, SSparseConfig{S: 4})
	if err := a.AddScaled(b, 1); err == nil {
		t.Fatal("expected error for different seeds")
	}
	c := NewSSparse(1, testDomain, SSparseConfig{S: 8})
	if err := a.AddScaled(c, 1); err == nil {
		t.Fatal("expected error for different shapes")
	}
}

func TestSSparseWords(t *testing.T) {
	ss := NewSSparse(1, testDomain, SSparseConfig{S: 8, Rows: 2, BucketsPerS: 2})
	want := 3 + 2*16*3 // explicit Rows: 2 below
	if ss.Words() != want {
		t.Fatalf("Words() = %d, want %d", ss.Words(), want)
	}
}

func TestSSparseDecodeDoesNotMutate(t *testing.T) {
	ss := NewSSparse(5, testDomain, SSparseConfig{S: 4})
	ss.Update(100, 3)
	ss.Update(200, -2)
	if _, ok := ss.Decode(); !ok {
		t.Fatal("decode failed")
	}
	// Decoding again must give the same answer (Decode works on a clone).
	got, ok := ss.Decode()
	if !ok || got[100] != 3 || got[200] != -2 {
		t.Fatal("second decode differs — Decode mutated the structure")
	}
}

func BenchmarkOneSparseUpdate(b *testing.B) {
	z := FingerprintPoint(1)
	var c Cell
	for i := 0; i < b.N; i++ {
		update(&c, z, uint64(i)&((1<<40)-1), 1)
	}
}

func BenchmarkSSparseUpdate(b *testing.B) {
	ss := NewSSparse(1, 1<<40, SSparseConfig{S: 8})
	for i := 0; i < b.N; i++ {
		ss.Update(uint64(i)&((1<<40)-1), 1)
	}
}

func BenchmarkSSparseDecode(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	ss := NewSSparse(1, 1<<40, SSparseConfig{S: 8})
	for i := 0; i < 8; i++ {
		ss.Update(rng.Uint64N(1<<40), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ss.Decode(); !ok {
			b.Fatal("decode failed")
		}
	}
}
