package codec

import (
	"encoding/binary"
	"fmt"
)

// Fingerprint hashes a structure's identity — its type tag and canonical
// construction parameters (seed included) — to the 64-bit value carried in
// every frame header. Two sketches may absorb each other's frames iff their
// fingerprints agree.
//
// The hash is FNV-1a over the tag byte followed by the params encoding.
// Params encodings are canonical: each package encodes the fully-defaulted
// parameter values its constructor would store, so two instances that
// behave identically fingerprint identically regardless of which optional
// fields the caller spelled out.
func Fingerprint(tag Tag, params []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h ^= uint64(tag)
	h *= prime64
	for _, c := range params {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// AppendUint64s appends each value as a little-endian uint64 — the params
// encodings are flat uint64 sequences (counts, shape fields, seeds), so
// this plus ReadUint64s is the whole params codec.
func AppendUint64s(dst []byte, vs ...uint64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

// ReadUint64s decodes n little-endian uint64 values from the front of b and
// returns them with the remaining bytes.
func ReadUint64s(b []byte, n int) ([]uint64, []byte, error) {
	if len(b) < 8*n {
		return nil, nil, fmt.Errorf("codec: params want %d words, have %d bytes: %w", n, len(b), ErrTruncated)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out, b[8*n:], nil
}

// IntField converts a params word back to a non-negative int, rejecting
// values that cannot be a sane dimension (negative after conversion or
// beyond 2³¹). Openers use it so a hand-crafted frame cannot demand an
// absurd allocation.
func IntField(v uint64, name string) (int, error) {
	if v > 1<<31 {
		return 0, fmt.Errorf("codec: params field %s = %d out of range: %w", name, v, ErrUnknownType)
	}
	return int(v), nil
}

// IntFields converts the leading params words to ints with IntField, one
// per name.
func IntFields(vs []uint64, names ...string) ([]int, error) {
	out := make([]int, len(names))
	for i, name := range names {
		var err error
		if out[i], err = IntField(vs[i], name); err != nil {
			return nil, err
		}
	}
	return out, nil
}
