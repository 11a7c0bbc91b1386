package l0

import (
	"errors"
	"fmt"
)

// AppendBinary serializes the sampler: one byte for the number of allocated
// levels, then for each allocated level one byte of level index followed by
// the level's cell state. Hash functions and shape are public randomness
// and are not transmitted. These bytes are the compact interior of the
// versioned wire format (internal/codec) — identity, versioning, and
// corruption detection happen at the frame layer, not here.
func (s *Sampler) AppendBinary(b []byte) []byte {
	count := 0
	for _, lv := range s.levels {
		if lv != nil {
			count++
		}
	}
	b = append(b, byte(count))
	for i, lv := range s.levels {
		if lv == nil {
			continue
		}
		b = append(b, byte(i))
		b = lv.AppendBinary(b)
	}
	return b
}

// BinarySize returns the length AppendBinary appends.
func (s *Sampler) BinarySize() int {
	n := 1
	for _, lv := range s.levels {
		if lv != nil {
			n += 1 + lv.BinarySize()
		}
	}
	return n
}

// AddBinary adds a serialized sampler into s (linear merge) and returns the
// remaining bytes. The serialized sampler must come from a sampler with the
// same seed, domain and config.
func (s *Sampler) AddBinary(b []byte) ([]byte, error) {
	if len(b) < 1 {
		return nil, errors.New("l0: short buffer")
	}
	count := int(b[0])
	b = b[1:]
	for j := 0; j < count; j++ {
		if len(b) < 1 {
			return nil, errors.New("l0: short buffer")
		}
		idx := int(b[0])
		b = b[1:]
		if idx >= s.sh.cfg.MaxLevels { // an absent s has no levels yet
			return nil, fmt.Errorf("l0: level %d out of range %d", idx, s.sh.cfg.MaxLevels)
		}
		var err error
		if b, err = s.level(idx).AddBinary(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}
