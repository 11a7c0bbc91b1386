package l0

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"graphsketch/internal/recovery"
)

// fuzzCfg keeps shares small (9 cells, 217 bytes per level) so the fuzzer
// can reach every level of a sampler.
var fuzzCfg = Config{S: 2, Rows: 2, MaxLevels: 6}

const fuzzSeed = 0xf022

// samplerWith returns a fuzzCfg sampler that has seen keys.
func samplerWith(keys ...uint64) *Sampler {
	s := New(fuzzSeed, dom, fuzzCfg)
	for _, k := range keys {
		s.Update(k, 1)
	}
	return s
}

// manyLevelKeys returns keys whose levels reach the sampler's top level,
// so the share lists every level.
func manyLevelKeys() []uint64 {
	s := samplerWith()
	var keys []uint64
	for k := uint64(1); s.levels() < fuzzCfg.MaxLevels; k++ {
		if top, _ := s.Hash(k); top >= s.levels() {
			keys = append(keys, k)
			s.Update(k, 1)
		}
	}
	return keys
}

// TestSamplerTruncatedMergeIsNoOp merges every strict prefix of a
// many-level share, and the share with its level count raised past
// MaxLevels, into a sampler that holds state: each must be rejected and
// leave the sampler's bytes exactly as they were.
func TestSamplerTruncatedMergeIsNoOp(t *testing.T) {
	share := samplerWith(manyLevelKeys()...).AppendBinary(nil)
	bad := append([]byte{byte(fuzzCfg.MaxLevels + 1)}, share[1:]...)
	bad = append(bad, byte(fuzzCfg.MaxLevels)) // bytes for a level past the range
	inputs := [][]byte{bad}
	for cut := 0; cut < len(share); cut++ {
		inputs = append(inputs, share[:cut])
	}
	for _, target := range []*Sampler{samplerWith(), samplerWith(3, 1<<20)} {
		before := target.AppendBinary(nil)
		for _, in := range inputs {
			if _, err := target.AddBinary(in); err == nil {
				t.Fatalf("%d-byte malformed share accepted", len(in))
			}
			if got := target.AppendBinary(nil); !bytes.Equal(got, before) {
				t.Fatalf("rejected %d-byte share changed the sampler: %d bytes, want %d", len(in), len(got), len(before))
			}
		}
	}
}

// cell is the bytes of one listed cell: any 24 bytes are a cell.
var cell = bytes.Repeat([]byte{7}, 24)

// share concatenates the byte slices parts.
func share(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// malformedShares are crafted fuzzCfg sampler shares (9 cells a level, a
// 2-byte bitmap) that no writer produces, each with the error that
// refuses it.
var malformedShares = []struct {
	name  string
	share []byte
	want  error
}{
	{"bit-past-cell-count", share([]byte{1, 0x01, 0x02}, cell, cell), recovery.ErrMalformed},
	{"empty-top-level", share([]byte{2, 0x01, 0x00}, cell, []byte{0x00, 0x00}), recovery.ErrMalformed},
	{"levels-past-max", []byte{byte(fuzzCfg.MaxLevels + 1)}, recovery.ErrMalformed},
	{"count-not-minimal", share([]byte{0x81, 0x00, 0x01, 0x00}, cell), recovery.ErrMalformed},
	{"truncated-count", []byte{0x81}, recovery.ErrShortBuffer},
	{"truncated-bitmap", []byte{1, 0x01}, recovery.ErrShortBuffer},
	{"truncated-cells", share([]byte{1, 0x03, 0x00}, cell, cell[:23]), recovery.ErrShortBuffer},
	{"missing-level", share([]byte{2, 0x01, 0x00}, cell), recovery.ErrShortBuffer},
}

// TestSamplerRefusesMalformed: each malformed share is refused by
// CheckBinary and AddBinary with its typed error, and the refusal leaves
// the receiver's bytes as they were and an absent receiver absent.
func TestSamplerRefusesMalformed(t *testing.T) {
	for _, tc := range malformedShares {
		t.Run(tc.name, func(t *testing.T) {
			for _, target := range []*Sampler{samplerWith(), samplerWith(3, 1<<20)} {
				before, absent := target.AppendBinary(nil), target.cells == nil
				if _, err := target.CheckBinary(tc.share); !errors.Is(err, tc.want) {
					t.Fatalf("CheckBinary: got %v, want %v", err, tc.want)
				}
				if _, err := target.AddBinary(tc.share); !errors.Is(err, tc.want) {
					t.Fatalf("AddBinary: got %v, want %v", err, tc.want)
				}
				if got := target.AppendBinary(nil); !bytes.Equal(got, before) || absent != (target.cells == nil) {
					t.Fatal("a refused share changed the receiver")
				}
			}
		})
	}
}

// TestSamplerBinaryIsCanonical: a sampler's bytes depend only on its
// vector. Updates that cancel leave it writing the one byte of an absent
// sampler, though they allocated levels, and a share of L levels, whose
// count takes two bytes from 128 on, reads back and writes the same
// bytes, up to LevelsCap.
func TestSamplerBinaryIsCanonical(t *testing.T) {
	s := samplerWith(manyLevelKeys()...)
	for _, k := range manyLevelKeys() {
		s.Update(k, -1)
	}
	if s.levels() == 0 || !bytes.Equal(s.AppendBinary(nil), []byte{0}) || s.BinarySize() != 1 {
		t.Fatalf("a cancelled sampler of %d levels writes %v", s.levels(), s.AppendBinary(nil))
	}
	cfg := Config{S: 7, BucketsPerS: 1, Rows: 1, MaxLevels: LevelsCap} // 8 cells, a 1-byte bitmap
	for _, levels := range []int{1, 127, 128, LevelsCap} {
		in := binary.AppendUvarint(nil, uint64(levels))
		in = append(append(in, make([]byte, levels-1)...), 0x01)
		in = append(in, cell...)
		s := New(fuzzSeed, dom, cfg)
		if rest, err := s.AddBinary(in); err != nil || len(rest) != 0 {
			t.Fatalf("%d levels: rest %d bytes, err %v", levels, len(rest), err)
		}
		if got := s.AppendBinary(nil); !bytes.Equal(got, in) || s.BinarySize() != len(in) {
			t.Fatalf("%d levels: a %d-byte share writes back %d bytes", levels, len(in), len(got))
		}
	}
}

// TestShareAllocationBound pins what a share can make a sampler allocate:
// a listed level costs at least its bitmap, ⌈cells/8⌉ bytes, and takes
// 24·cells bytes of arena, so at most 192 bytes per share byte. Each
// share lists MaxLevels levels, all empty but the top, which holds one
// cell: the most arena for the fewest bytes. Eight cells a level reach
// 192× per bitmap byte; the default shape's 49 reach 168×.
func TestShareAllocationBound(t *testing.T) {
	for _, cfg := range []Config{
		{S: 7, BucketsPerS: 1, Rows: 1, MaxLevels: LevelsCap},
		{MaxLevels: 64},
	} {
		s := New(fuzzSeed, dom, cfg)
		nb := (s.sh.stride + 7) / 8
		in := binary.AppendUvarint(nil, uint64(cfg.MaxLevels))
		in = append(in, make([]byte, nb*cfg.MaxLevels)...)
		in[len(in)-nb] = 0x01 // the top level lists its first cell
		in = append(in, cell...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := s.AddBinary(in)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		ratio := float64(alloc) / float64(len(in))
		t.Logf("%d cells a level: a %d-byte share allocated %d bytes, %.1f× its length", s.sh.stride, len(in), alloc, ratio)
		if ratio > 192 {
			t.Errorf("a %d-byte share allocated %d bytes, more than 192× its length", len(in), alloc)
		}
	}
}

// FuzzSamplerAddBinary feeds arbitrary shares to Sampler.AddBinary. It
// must never panic; a rejected share must leave the target's bytes
// unchanged; and an accepted share, merged into a fresh sampler and
// serialized, must re-serialize to the same bytes through another fresh
// sampler. The seeds are shares this package writes, one with a level
// whose bitmap is empty below its top, and the malformed shares.
func FuzzSamplerAddBinary(f *testing.F) {
	f.Add(samplerWith().AppendBinary(nil))
	f.Add(samplerWith(5).AppendBinary(nil))
	f.Add(samplerWith(manyLevelKeys()...).AppendBinary(nil))
	f.Add(share([]byte{3, 0x01, 0x00}, cell, []byte{0x00, 0x00, 0x00, 0x01}, cell))
	for _, tc := range malformedShares {
		f.Add(tc.share)
	}
	base := samplerWith(3, 1<<20, 77)
	f.Fuzz(func(t *testing.T, data []byte) {
		target := base.Clone()
		before := target.AppendBinary(nil)
		rest, err := target.AddBinary(data)
		if err != nil {
			if got := target.AppendBinary(nil); !bytes.Equal(got, before) {
				t.Fatalf("rejected share changed the target: %v", err)
			}
			return
		}
		if !bytes.HasSuffix(data, rest) {
			t.Fatal("AddBinary returned bytes that are not a suffix of its input")
		}
		once := samplerWith()
		if _, err := once.AddBinary(data); err != nil {
			t.Fatalf("a share the target accepted is rejected by a fresh sampler: %v", err)
		}
		b1 := once.AppendBinary(nil)
		if len(b1) != once.BinarySize() {
			t.Fatalf("AppendBinary wrote %d bytes, BinarySize says %d", len(b1), once.BinarySize())
		}
		twice := samplerWith()
		if rest, err := twice.AddBinary(b1); err != nil || len(rest) != 0 {
			t.Fatalf("re-serialized share: rest %d bytes, err %v", len(rest), err)
		}
		if b2 := twice.AppendBinary(nil); !bytes.Equal(b1, b2) {
			t.Fatal("re-serializing an accepted share is not stable")
		}
		once.Sample() // crafted cells must not panic the draw
	})
}
