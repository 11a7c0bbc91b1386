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

// CheckBinary validates a serialized sampler at the front of b for s — the
// level count, every level index and the total length — and returns the
// remaining bytes. It reads only the count and level-index bytes and
// changes nothing, so a caller can validate a whole run of samplers before
// merging the first.
func (s *Sampler) CheckBinary(b []byte) ([]byte, error) {
	_, rest, err := s.checkBinary(b)
	return rest, err
}

// checkBinary is CheckBinary also returning the highest listed level, −1
// when the share lists none. Such a share, an absent sampler's, is read
// without touching s: most samplers of a sparse sketch are absent.
func (s *Sampler) checkBinary(b []byte) (top int, rest []byte, err error) {
	if len(b) < 1 {
		return 0, nil, recovery.ErrShortBuffer
	}
	count, body := int(b[0]), b[1:]
	if count == 0 {
		return -1, body, nil
	}
	size := s.levelBytes()
	top = -1
	for j := 0; j < count; j++ {
		if len(body) <= j*size {
			return 0, nil, recovery.ErrShortBuffer
		}
		lv := int(body[j*size])
		if lv >= s.sh.cfg.MaxLevels { // an absent s has no levels yet
			return 0, nil, fmt.Errorf("l0: level %d out of range %d", lv, s.sh.cfg.MaxLevels)
		}
		top = max(top, lv)
	}
	if len(body) < count*size {
		return 0, nil, recovery.ErrShortBuffer
	}
	return top, body[count*size:], nil
}

// levelBytes is the serialized length of one level: its index byte and
// its cells.
func (s *Sampler) levelBytes() int { return 1 + recovery.CellBytes*s.sh.stride }

// AddBinary adds a serialized sampler into s (linear merge) and returns the
// remaining bytes. The serialized sampler must come from a sampler with the
// same seed, domain and config.
//
// The whole share is validated first (CheckBinary), so a rejected share
// leaves s exactly as it was. Then the arena grows once, to the highest
// listed level. Shares this package writes list the allocated prefix
// 0..L in order; a crafted share that lists other levels (gaps, any order,
// repeats) is accepted and merged level by level, and allocates every
// level up to its highest.
func (s *Sampler) AddBinary(b []byte) ([]byte, error) {
	top, rest, err := s.checkBinary(b)
	if err != nil || top < 0 {
		return rest, err
	}
	s.grow(top + 1)
	size := s.levelBytes()
	for levels := b[1 : len(b)-len(rest)]; len(levels) > 0; levels = levels[size:] {
		// Cannot fail: the length was checked above.
		if _, err := recovery.AddCellsBinary(s.cellsOf(int(levels[0])), levels[1:size]); err != nil {
			panic(err)
		}
	}
	return rest, nil
}
