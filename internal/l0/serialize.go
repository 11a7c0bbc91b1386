package l0

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"graphsketch/internal/recovery"
)

// AppendBinary serializes the sampler: a uvarint level count L, then
// levels 0..L−1 as cell blocks (recovery.AppendCells), in order and with
// no level index. L is one more than the highest level holding a nonzero
// cell, so the bytes depend only on the sampler's vector: levels that
// updates allocated and later cancelled write nothing, and a sampler whose
// cells are all zero writes L = 0, the one byte of an absent sampler. Hash
// functions and shape are public randomness and are not transmitted.
// These bytes are the compact interior of the versioned wire format
// (internal/codec) — identity, versioning, and corruption detection happen
// at the frame layer, not here.
func (s *Sampler) AppendBinary(b []byte) []byte {
	if s.cells == nil {
		return append(b, 0) // absent: most samplers of a sparse sketch
	}
	n := s.listed()
	b = binary.AppendUvarint(b, uint64(n))
	for lv := range n {
		b = recovery.AppendCells(b, s.cellsOf(lv))
	}
	return b
}

// BinarySize returns the length AppendBinary appends, in one forward pass
// over the arena: it reads every allocated cell.
func (s *Sampler) BinarySize() int {
	if s.cells == nil {
		return 1
	}
	n, size, listed := 0, 0, 0
	for lv := range s.levels() {
		k := recovery.Nonzero(s.cellsOf(lv))
		if size += recovery.BlockSize(s.sh.stride, k); k > 0 {
			n, listed = lv+1, size
		}
	}
	return uvarintLen(n) + listed
}

// listed returns the number of levels AppendBinary writes: one more than
// the highest allocated level with a nonzero cell, or 0. A nonzero level's
// certification cell, the sum of its coordinates, is almost always
// nonzero itself, so the scan reads one cell of such a level; it runs
// forward, so the arena is in cache for the blocks written after it.
func (s *Sampler) listed() int {
	n := 0
	for lv := range s.levels() {
		if level := s.cellsOf(lv); !level[0].IsZero() || recovery.Nonzero(level[1:]) > 0 {
			n = lv + 1
		}
	}
	return n
}

// uvarintLen is the length of n's uvarint encoding: 7 bits a byte.
func uvarintLen(n int) int { return (bits.Len(uint(n)|1) + 6) / 7 }

// CheckBinary validates a serialized sampler at the front of b for s and
// returns the remaining bytes. It refuses, with recovery.ErrMalformed, a
// level count that is not minimally encoded or exceeds MaxLevels, and a
// top level that lists no cell, which no writer produces; each level's
// block is checked by recovery.CheckCells. It reads only the count and
// the bitmaps and changes nothing, so a caller can validate a whole run of
// samplers before merging the first.
func (s *Sampler) CheckBinary(b []byte) ([]byte, error) {
	n, k := binary.Uvarint(b)
	switch {
	case k == 0:
		return nil, recovery.ErrShortBuffer
	case k < 0 || k > 1 && b[k-1] == 0:
		return nil, fmt.Errorf("l0: level count not minimally encoded: %w", recovery.ErrMalformed)
	case n > uint64(s.sh.cfg.MaxLevels):
		return nil, fmt.Errorf("l0: %d levels, more than %d: %w", n, s.sh.cfg.MaxLevels, recovery.ErrMalformed)
	}
	rest := b[k:]
	for lv := range int(n) {
		listed, r, err := recovery.CheckCells(rest, s.sh.stride)
		if err != nil {
			return nil, err
		}
		if listed == 0 && lv == int(n)-1 {
			return nil, fmt.Errorf("l0: top level %d lists no cell: %w", lv, recovery.ErrMalformed)
		}
		rest = r
	}
	return rest, nil
}

// AddCheckedBinary adds a serialized sampler, which CheckBinary accepted,
// into s (linear merge) and returns the remaining bytes. It does not check
// the share again: checking first is what leaves s exactly as it was when
// a share is rejected. The share must come from a sampler with the same
// seed, domain and config. The arena grows once, to the share's L levels,
// and each level's listed cells are scatter-added
// (recovery.AddCheckedCells). A share of L = 0, an absent sampler's, is
// read without touching s: most samplers of a sparse sketch are absent.
//
// The wire bytes bound what the merge allocates: every listed level costs
// at least its bitmap, ⌈cells/8⌉ bytes, and allocates 24·cells bytes, so
// a share makes s allocate at most 192 bytes per share byte
// (TestShareAllocationBound).
func (s *Sampler) AddCheckedBinary(b []byte) ([]byte, error) {
	n, k := binary.Uvarint(b)
	b = b[k:]
	if n == 0 {
		return b, nil
	}
	s.grow(int(n))
	for lv := range int(n) {
		b = recovery.AddCheckedCells(s.cellsOf(lv), b)
	}
	return b, nil
}
