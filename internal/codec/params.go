package codec

import (
	"encoding/binary"
	"fmt"
)

// ParamReader reads a params encoding, a flat run of little-endian uint64
// words (AppendUint64s), front to back: every opener reads its params
// through one. The first error sticks: later reads return zero, and Done
// returns it. Params that end early fail ErrTruncated; a field out of
// range, or bytes left after the last field, fail ErrUnknownType.
type ParamReader struct {
	b   []byte
	err error
}

// ReadParams returns a reader over params.
func ReadParams(params []byte) *ParamReader { return &ParamReader{b: params} }

// Uint64 reads the next word.
func (p *ParamReader) Uint64() uint64 {
	if p.err != nil {
		return 0
	}
	if len(p.b) < 8 {
		p.err = fmt.Errorf("codec: params end %d bytes into a word: %w", len(p.b), ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(p.b)
	p.b = p.b[8:]
	return v
}

// Int reads the next word as a dimension, rejecting a value that cannot
// be a sane one (beyond 2³¹) so a hand-crafted frame cannot demand an
// absurd allocation.
func (p *ParamReader) Int(name string) int {
	v := p.Uint64()
	p.Check(v <= 1<<31, name, v)
	return int(min(v, 1<<31))
}

// Check records the named field, whose value is v, as out of range unless
// ok: for bounds an opener knows beyond Int's.
func (p *ParamReader) Check(ok bool, name string, v any) {
	if !ok && p.err == nil {
		p.err = fmt.Errorf("codec: params field %s = %v out of range: %w", name, v, ErrUnknownType)
	}
}

// Done returns the first error, or an error if bytes remain after the
// last field read.
func (p *ParamReader) Done() error {
	if p.err == nil && len(p.b) != 0 {
		p.err = fmt.Errorf("codec: params carry %d trailing bytes: %w", len(p.b), ErrUnknownType)
	}
	return p.err
}
