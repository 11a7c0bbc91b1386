package l0

import (
	"bytes"
	"testing"
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
// many-level share, and shares with a bad level index after good ones,
// into a sampler that holds state: each must be rejected and leave the
// sampler's bytes exactly as they were.
func TestSamplerTruncatedMergeIsNoOp(t *testing.T) {
	share := samplerWith(manyLevelKeys()...).AppendBinary(nil)
	bad := append([]byte{byte(fuzzCfg.MaxLevels + 1)}, share[1:]...)
	bad = append(bad, byte(fuzzCfg.MaxLevels)) // an extra level past the range
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

// FuzzSamplerAddBinary feeds arbitrary shares to Sampler.AddBinary. It
// must never panic; a rejected share must leave the target's bytes
// unchanged; and an accepted share, merged into a fresh sampler and
// serialized, must re-serialize to the same bytes through another fresh
// sampler. Crafted level lists that are not the prefix 0..L this package
// writes (gaps, repeats, any order) are accepted, so the fuzzer reaches
// them too.
func FuzzSamplerAddBinary(f *testing.F) {
	f.Add(samplerWith().AppendBinary(nil))
	f.Add(samplerWith(5).AppendBinary(nil))
	f.Add(samplerWith(manyLevelKeys()...).AppendBinary(nil))
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
