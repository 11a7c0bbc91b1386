package l0

import (
	"fmt"

	"graphsketch/internal/recovery"
)

// AppendBinary serializes the sampler: one byte for the number of allocated
// levels, then for each allocated level one byte of level index followed by
// the level's cells (recovery.AppendCells) — one pass over the arena. Hash
// functions and shape are public randomness and are not transmitted. These
// bytes are the compact interior of the versioned wire format
// (internal/codec) — identity, versioning, and corruption detection happen
// at the frame layer, not here.
func (s *Sampler) AppendBinary(b []byte) []byte {
	n := s.levels()
	b = append(b, byte(n))
	for lv := 0; lv < n; lv++ {
		b = append(b, byte(lv))
		b = recovery.AppendCells(b, s.cellsOf(lv))
	}
	return b
}

// BinarySize returns the length AppendBinary appends.
func (s *Sampler) BinarySize() int {
	return 1 + s.levels() + recovery.CellBytes*len(s.cells)
}

// AddBinary adds a serialized sampler into s (linear merge) and returns the
// remaining bytes. The serialized sampler must come from a sampler with the
// same seed, domain and config.
//
// The whole share — every level index and the total length — is validated
// before any state changes, so a rejected share leaves s exactly as it was.
// Then the arena grows once, to the highest listed level. Shares this
// package writes list the allocated prefix 0..L in order; a crafted share
// that lists other levels (gaps, any order, repeats) is accepted and merged
// level by level, and allocates every level up to its highest.
func (s *Sampler) AddBinary(b []byte) ([]byte, error) {
	if len(b) < 1 {
		return nil, recovery.ErrShortBuffer
	}
	count, body := int(b[0]), b[1:]
	size := 1 + recovery.CellBytes*s.sh.stride // level index byte + cells
	top := -1
	for j := 0; j < count; j++ {
		if len(body) <= j*size {
			return nil, recovery.ErrShortBuffer
		}
		lv := int(body[j*size])
		if lv >= s.sh.cfg.MaxLevels { // an absent s has no levels yet
			return nil, fmt.Errorf("l0: level %d out of range %d", lv, s.sh.cfg.MaxLevels)
		}
		top = max(top, lv)
	}
	if len(body) < count*size {
		return nil, recovery.ErrShortBuffer
	}
	s.grow(top + 1)
	for j := 0; j < count; j++ {
		share := body[j*size : (j+1)*size]
		// Cannot fail: the length was checked above.
		if _, err := recovery.AddCellsBinary(s.cellsOf(int(share[0])), share[1:]); err != nil {
			panic(err)
		}
	}
	return body[count*size:], nil
}
