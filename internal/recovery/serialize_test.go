package recovery

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"
)

func TestOneSparseBinaryMerge(t *testing.T) {
	a := NewOneSparse(5, testDomain)
	b := NewOneSparse(5, testDomain)
	a.Update(10, 3)
	b.Update(20, -2)

	merged := NewOneSparse(5, testDomain)
	rest, err := merged.AddBinary(a.AppendBinary(nil))
	if err != nil || len(rest) != 0 {
		t.Fatal(err, len(rest))
	}
	if _, err := merged.AddBinary(b.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}

	direct := NewOneSparse(5, testDomain)
	direct.Update(10, 3)
	direct.Update(20, -2)
	if *merged != *direct {
		t.Fatal("binary merge differs from direct updates")
	}
}

// A one-cell block that lists its cell must carry all 24 of its bytes.
func TestOneSparseBinaryShortBuffer(t *testing.T) {
	c := NewOneSparse(1, testDomain)
	if _, err := c.AddBinary(append([]byte{1}, make([]byte, 23)...)); err == nil {
		t.Fatal("a listed cell of 23 bytes accepted")
	}
}

func TestSSparseBinaryMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	cfg := SSparseConfig{S: 4}
	a := NewSSparse(9, testDomain, cfg)
	b := NewSSparse(9, testDomain, cfg)
	direct := NewSSparse(9, testDomain, cfg)
	for j := 0; j < 6; j++ {
		i := rng.Uint64N(testDomain)
		v := int64(1 + rng.IntN(5))
		if j%2 == 0 {
			a.Update(i, v)
		} else {
			b.Update(i, v)
		}
		direct.Update(i, v)
	}
	merged := NewSSparse(9, testDomain, cfg)
	for _, src := range []*SSparse{a, b} {
		rest, err := merged.AddBinary(src.AppendBinary(nil))
		if err != nil || len(rest) != 0 {
			t.Fatal(err, len(rest))
		}
	}
	gm, okM := merged.Decode()
	gd, okD := direct.Decode()
	if okM != okD || len(gm) != len(gd) {
		t.Fatal("merged decode differs")
	}
	for i, v := range gd {
		if gm[i] != v {
			t.Fatal("merged decode value differs")
		}
	}
}

// An empty structure of 17 cells is its 3-byte bitmap; one coordinate
// adds the certification cell and one cell a row.
func TestSSparseBinarySize(t *testing.T) {
	s := NewSSparse(1, testDomain, SSparseConfig{S: 4, Rows: 2, BucketsPerS: 2})
	for _, want := range []int{3, 3 + 3*24} {
		data := s.AppendBinary(nil)
		if len(data) != s.BinarySize() {
			t.Fatalf("serialized %d bytes, BinarySize says %d", len(data), s.BinarySize())
		}
		if len(data) != want {
			t.Fatalf("serialized %d bytes, want %d", len(data), want)
		}
		s.Update(5, 1)
	}
}

func TestSSparseBinaryTruncated(t *testing.T) {
	s := NewSSparse(1, testDomain, SSparseConfig{S: 4})
	s.Update(5, 1)
	data := s.AppendBinary(nil)
	r := NewSSparse(1, testDomain, SSparseConfig{S: 4})
	if _, err := r.AddBinary(data[:len(data)-1]); err == nil {
		t.Fatal("truncated buffer accepted")
	}
}

// A rejected merge must leave the target untouched: merging any strict
// prefix of a one-entry level — e.g. 40 bytes, the certification cell and
// part of the first grid cell — returns ErrShortBuffer, and the target's
// bytes and decode stay exactly as they were.
func TestSSparseTruncatedMergeIsNoOp(t *testing.T) {
	src := NewSSparse(1, testDomain, SSparseConfig{S: 4})
	src.Update(5, 1)
	data := src.AppendBinary(nil)
	for _, target := range []*SSparse{NewSSparse(1, testDomain, SSparseConfig{S: 4}), src.Clone()} {
		before := target.AppendBinary(nil)
		for cut := 0; cut < len(data); cut++ {
			if _, err := target.AddBinary(data[:cut]); !errors.Is(err, ErrShortBuffer) {
				t.Fatalf("%d-byte prefix: err %v, want ErrShortBuffer", cut, err)
			}
			if !bytes.Equal(target.AppendBinary(nil), before) {
				t.Fatalf("rejected %d-byte prefix changed the structure", cut)
			}
		}
		if _, ok := target.Decode(); !ok {
			t.Fatal("structure no longer decodes after rejected merges")
		}
	}
}

// TestSSparseRefusesMalformed: crafted blocks for a 17-cell structure (a
// 3-byte bitmap) — a Becker row's form — are refused with a typed error
// by CheckBinary and AddBinary, and the refusal leaves the structure's
// bytes as they were.
func TestSSparseRefusesMalformed(t *testing.T) {
	cell := bytes.Repeat([]byte{7}, CellBytes)
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, tc := range []struct {
		name  string
		block []byte
		want  error
	}{
		{"bit-past-cell-count", join([]byte{0x01, 0x00, 0x02}, cell, cell), ErrMalformed},
		{"empty", nil, ErrShortBuffer},
		{"truncated-bitmap", []byte{0x01, 0x00}, ErrShortBuffer},
		{"truncated-cells", join([]byte{0x03, 0x00, 0x00}, cell, cell[:1]), ErrShortBuffer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := NewSSparse(1, testDomain, SSparseConfig{S: 4, Rows: 2, BucketsPerS: 2})
			src.Update(5, 1)
			for _, target := range []*SSparse{NewSSparse(1, testDomain, SSparseConfig{S: 4, Rows: 2, BucketsPerS: 2}), src} {
				before := target.AppendBinary(nil)
				if _, err := target.CheckBinary(tc.block); !errors.Is(err, tc.want) {
					t.Fatalf("CheckBinary: got %v, want %v", err, tc.want)
				}
				if _, err := target.AddBinary(tc.block); !errors.Is(err, tc.want) {
					t.Fatalf("AddBinary: got %v, want %v", err, tc.want)
				}
				if !bytes.Equal(target.AppendBinary(nil), before) {
					t.Fatal("a refused block changed the structure")
				}
			}
		})
	}
}

// Corrupting serialized state must be caught by decode certification, not
// produce silently wrong output.
func TestCorruptedStateDetected(t *testing.T) {
	caught := 0
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 3))
		s := NewSSparse(uint64(trial), testDomain, SSparseConfig{S: 4})
		truth := map[uint64]int64{}
		for j := 0; j < 3; j++ {
			i := rng.Uint64N(testDomain)
			s.Update(i, 1)
			truth[i]++
		}
		data := s.AppendBinary(nil)
		// Flip a random byte.
		data[rng.IntN(len(data))] ^= 0xff
		r := NewSSparse(uint64(trial), testDomain, SSparseConfig{S: 4})
		if _, err := r.AddBinary(data); err != nil {
			caught++
			continue
		}
		got, ok := r.Decode()
		if !ok {
			caught++ // certification rejected the corrupt state
			continue
		}
		// A decode that still "succeeds" must not invent coordinates
		// outside the original support... it may legitimately differ in
		// values (the corruption hit the count word of a real entry), but
		// the fingerprints make a wrong-support decode astronomically
		// unlikely unless the corruption canceled consistently.
		for i := range got {
			if _, in := truth[i]; !in {
				t.Fatalf("trial %d: corrupt state decoded phantom coordinate %d", trial, i)
			}
		}
	}
	if caught < 35 {
		t.Fatalf("only %d/50 corruptions detected", caught)
	}
}
