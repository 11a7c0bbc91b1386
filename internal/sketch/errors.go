package sketch

import "errors"

// Sentinel errors for the sketch package. Callers (and the oracle)
// branch on these with errors.Is instead of matching message strings; the
// recovery substrate has its own sentinels (recovery.ErrIncompatible,
// recovery.ErrShortBuffer) which AddScaled and serialization errors may
// wrap.
var (
	// ErrDecodeFailed is returned when a sketch cannot be decoded — the
	// repetition budget was exhausted without certifying a result.
	// Failures are always detected (the underlying recoveries are
	// certified), never silent.
	ErrDecodeFailed = errors.New("sketch: decode failed (increase Rounds or sampler size)")

	// ErrSeedMismatch is returned when combining sketches constructed from
	// different master seeds.
	ErrSeedMismatch = errors.New("sketch: seed mismatch")

	// ErrDomainMismatch is returned when combining sketches over different
	// hyperedge key domains.
	ErrDomainMismatch = errors.New("sketch: domain mismatch")

	// ErrConfigMismatch is returned when combining sketches with different
	// configurations (rounds, sampler shape, or skeleton parameter).
	ErrConfigMismatch = errors.New("sketch: config mismatch")
)
