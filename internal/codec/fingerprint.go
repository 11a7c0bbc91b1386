package codec

import "encoding/binary"

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
// this plus ParamReader is the whole params codec.
func AppendUint64s(dst []byte, vs ...uint64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}
