package codec

import (
	"errors"

	"graphsketch"
)

// Typed sentinel errors for decode failures, following the repository's
// per-package sentinel convention (sketch.ErrSeedMismatch,
// recovery.ErrShortBuffer, …). Callers branch with errors.Is; every decode
// path returns one of these — never a panic, never a silent wrong merge.
var (
	// ErrBadMagic is returned when a frame does not start with Magic:
	// the bytes are not a graphsketch frame at all.
	ErrBadMagic = errors.New("codec: bad magic (not a graphsketch frame)")

	// ErrVersion is returned when a frame's format version is one this
	// build does not read.
	ErrVersion = errors.New("codec: unsupported format version")

	// ErrUnknownType is returned when a frame's structure type tag has no
	// registered decoder, a frame of one kind arrives where the other kind
	// was required, or a checkpoint's params or state are ones its opener
	// rejects (a field out of range, trailing bytes).
	ErrUnknownType = errors.New("codec: unknown structure type or frame kind")

	// ErrFingerprint is returned when a frame's identity fingerprint does
	// not match the receiving sketch's parameters+seed — e.g. a share from
	// a Lean-profile sketch offered to a Balanced-profile referee, or a
	// cross-seed merge. Before the framed format this mis-merged silently.
	ErrFingerprint = errors.New("codec: identity fingerprint mismatch (different params, profile, or seed)")

	// ErrChecksum is returned when a frame's CRC does not match its
	// contents: the frame was corrupted in storage or transit.
	ErrChecksum = errors.New("codec: checksum mismatch (corrupt frame)")

	// ErrTruncated is returned when the input ends before the frame does.
	ErrTruncated = errors.New("codec: truncated frame")

	// ErrStateLength is returned by WriteCheckpoint when the state written
	// is longer or shorter than the length its header declared. It is a
	// write-side error: no frame is completed.
	ErrStateLength = errors.New("codec: state length differs from the declared length")
)

// IsDecodeError reports whether err is (or wraps) one of the package's
// decode sentinels, or graphsketch.ErrVertexRange from a share frame naming
// a vertex outside the receiver's range; the obs rejection counter uses it.
func IsDecodeError(err error) bool {
	for _, s := range []error{ErrBadMagic, ErrVersion, ErrUnknownType, ErrFingerprint, ErrChecksum, ErrTruncated, graphsketch.ErrVertexRange} {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}
