// Package codec defines the repository's versioned, self-describing wire
// format: a framed binary envelope that turns the raw linear-sketch
// serializations (internal/l0, internal/recovery — which stay exactly as
// they are, as the compact frame interior) into durable, transportable
// artifacts.
//
// Every frame is
//
//	offset size field
//	0      4    magic "GSKF"
//	4      2    format version (little-endian uint16; currently 1)
//	6      1    kind (1 = checkpoint, 2 = vertex share, 3–6 = shard plane)
//	7      1    structure type tag (TagSpanning … TagBecker)
//	8      8    identity fingerprint (little-endian uint64)
//	16     8    payload length (little-endian uint64)
//	24     …    payload
//	24+n   4    CRC-32C (Castagnoli) over bytes [0, 24+n)
//
// The fingerprint is an FNV-1a hash of the structure's canonical
// construction parameters, seed included (see Fingerprint). Two sketches
// can absorb each other's frames iff their fingerprints agree — the frame
// is rejected with ErrFingerprint otherwise, replacing the old silent
// mis-merge between differently-constructed instances.
//
// A checkpoint frame's payload embeds the parameters themselves
// (length-prefixed) ahead of the state bytes, so Open can reconstruct the
// sketch from the frame alone, with no out-of-band construction. A share
// frame's payload is the vertex index followed by the raw interior share
// (the per-player message body of the simultaneous communication model);
// parameters are the protocol's public randomness and are never shipped in
// shares.
//
// The package has no dependencies outside the standard library and the
// root graphsketch interfaces.
package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic identifies a graphsketch frame ("GSKF").
var Magic = [4]byte{'G', 'S', 'K', 'F'}

// Version is the current format version. Decoders accept exactly the
// versions they know how to parse; see the versioning policy in
// IMPLEMENTATION.md ("Wire format & checkpointing").
const Version uint16 = 1

// Kind discriminates what a frame carries.
type Kind uint8

const (
	// KindCheckpoint frames carry parameters + full sketch state; Open
	// reconstructs the sketch from such a frame alone.
	KindCheckpoint Kind = 1
	// KindShare frames carry one vertex's share (the simultaneous
	// communication model's per-player message) without parameters.
	KindShare Kind = 2

	// The shard-plane session kinds (internal/shardplane) ride the same
	// envelope: every cluster message is a checksummed, fingerprinted frame,
	// so a misrouted or cross-identity message fails typed instead of
	// corrupting a shard. Kinds are wire format: never renumber.

	// KindHello opens a shard session: the payload assigns a vertex range
	// and embeds a full checkpoint frame the shard constructs (or restores)
	// its member sketch from.
	KindHello Kind = 3
	// KindBatch carries one routed update batch for the receiving shard's
	// vertex range.
	KindBatch Kind = 4
	// KindPull requests the shard's current checkpoint frame.
	KindPull Kind = 5
	// KindAck acknowledges a hello or batch frame, carrying an application
	// status and error text.
	KindAck Kind = 6
)

// Tag identifies the structure type inside a frame.
type Tag uint8

// One tag per serializable structure. Tags are wire format: never renumber.
const (
	TagSpanning   Tag = 1 // sketch.SpanningSketch
	TagSkeleton   Tag = 2 // sketch.SkeletonSketch
	TagEdgeConn   Tag = 3 // edgeconn.Sketch
	TagVertexConn Tag = 4 // vertexconn.Sketch
	TagEstimator  Tag = 5 // vertexconn.Estimator
	TagReconstr   Tag = 6 // reconstruct.Sketch
	TagSparsify   Tag = 7 // sparsify.Sketch
	TagBecker     Tag = 8 // reconstruct.BeckerSketch (shares only)
	TagHybrid     Tag = 9 // hybrid.Sketch (adaptive exact/sketch wrapper)
)

var tagNames = [...]string{TagSpanning: "spanning", TagSkeleton: "skeleton", TagEdgeConn: "edgeconn",
	TagVertexConn: "vertexconn", TagEstimator: "vertexconn-estimator", TagReconstr: "reconstruct",
	TagSparsify: "sparsify", TagBecker: "becker", TagHybrid: "hybrid"}

// String names the tag for diagnostics.
func (t Tag) String() string {
	if int(t) < len(tagNames) && tagNames[t] != "" {
		return tagNames[t]
	}
	return fmt.Sprintf("tag(%d)", uint8(t))
}

// Header is a frame's envelope metadata.
type Header struct {
	Version     uint16
	Kind        Kind
	Tag         Tag
	Fingerprint uint64
}

const (
	headerLen = 24
	crcLen    = 4
	// FrameOverhead is the envelope cost of a frame in bytes: header plus
	// trailing checksum. commsim uses it to report interior
	// (paper-faithful) message sizes alongside framed totals.
	FrameOverhead = headerLen + crcLen
	// ShareOverhead is FrameOverhead plus the vertex index a share frame
	// embeds in its payload.
	ShareOverhead = FrameOverhead + 4
	// maxSanePayload bounds a declared payload length so a corrupt or
	// hostile header cannot demand an absurd allocation before truncation
	// is detected. 1 GiB is orders of magnitude above any sketch here.
	maxSanePayload = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends a complete frame for (h, payload) to dst.
func AppendFrame(dst []byte, h Header, payload []byte) []byte {
	start := len(dst)
	dst = append(beginFrame(grow(dst, FrameOverhead+len(payload)), h), payload...)
	return finishFrame(dst, start)
}

// grow returns dst with room for n more bytes, reallocating at most once,
// to exactly that size.
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return append(make([]byte, 0, len(dst)+n), dst...)
}

// beginFrame appends h's header with a zero payload length; the caller
// appends the payload in place and finishFrame completes the frame.
func beginFrame(dst []byte, h Header) []byte {
	dst = append(dst, Magic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, Version)
	dst = append(dst, byte(h.Kind), byte(h.Tag))
	dst = binary.LittleEndian.AppendUint64(dst, h.Fingerprint)
	return binary.LittleEndian.AppendUint64(dst, 0)
}

// finishFrame completes the frame begun at dst[start:]: it patches the
// payload length and appends the CRC, one pass over the frame.
func finishFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint64(dst[start+16:], uint64(len(dst)-start-headerLen))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// WriteFrame writes a complete frame to w and returns the bytes written.
func WriteFrame(w io.Writer, h Header, payload []byte) (int64, error) {
	n, err := w.Write(AppendFrame(nil, h, payload))
	return int64(n), err
}

// readChunk is the first buffer for a frame from a reader that cannot
// report its remaining length. Until half of a longer frame has arrived it
// is read in chunks, each as long as everything received before it; then
// the exact-size frame is allocated and the rest read straight into it. A
// lying length thus fails ErrTruncated with every allocation at most twice
// the bytes actually received.
const readChunk = 64 << 10

// ReadFrame reads one frame from r, verifying magic, version, and checksum.
// It returns the header, the payload, and the number of bytes consumed.
// Errors are the package sentinels (possibly wrapped with detail).
func ReadFrame(r io.Reader) (Header, []byte, int64, error) {
	h, frame, n, err := ReadFrameBytes(r)
	if err != nil {
		return Header{}, nil, n, err
	}
	return h, frame[headerLen : len(frame)-crcLen], n, nil
}

// ReadFrameBytes is ReadFrame returning the complete verified frame, header
// through checksum — the bytes the sender's AppendFrame produced. When r is
// a *bytes.Buffer the frame is verified where it lies and returned as a
// window into the buffer's backing array (capacity clipped to the frame),
// with no allocation or copy; the buffer advances past it only on success.
// Callers that keep any of the frame's bytes past the buffer's next write
// must copy them: every Opener and ReadFrom does. From any other reader the
// frame is read into an exact-size buffer of its own; when r reports its
// remaining length (Len() int, as bytes.Reader does) the declared length is
// checked against it and the frame is read with one allocation.
func ReadFrameBytes(r io.Reader) (Header, []byte, int64, error) {
	if buf, ok := r.(*bytes.Buffer); ok {
		h, payload, _, err := DecodeFrame(buf.Bytes())
		if err != nil {
			return Header{}, nil, 0, err
		}
		size := FrameOverhead + len(payload)
		return h, buf.Next(size)[:size:size], int64(size), nil
	}
	var hdr [headerLen]byte
	n, err := io.ReadFull(r, hdr[:])
	read := int64(n)
	if err != nil {
		return Header{}, nil, read, fmt.Errorf("codec: reading header: %w", ErrTruncated)
	}
	size, err := frameSize(hdr[:])
	if err != nil {
		return Header{}, nil, read, err
	}
	half := size / 2
	if sr, ok := r.(interface{ Len() int }); ok {
		if avail := sr.Len(); avail < size-headerLen {
			return Header{}, nil, read, fmt.Errorf("codec: payload short by %d bytes: %w", size-headerLen-avail, ErrTruncated)
		}
		half = 0
	}
	chunks, got := [][]byte{hdr[:]}, headerLen
	for size > readChunk && got < half {
		chunk := make([]byte, min(max(got, readChunk), half-got))
		m, err := io.ReadFull(r, chunk)
		read += int64(m)
		if got += m; err != nil {
			return Header{}, nil, read, fmt.Errorf("codec: payload short by %d bytes: %w", size-got, ErrTruncated)
		}
		chunks = append(chunks, chunk)
	}
	frame := make([]byte, 0, size)
	for _, c := range chunks {
		frame = append(frame, c...)
	}
	m, err := io.ReadFull(r, frame[got:size])
	read += int64(m)
	if err != nil {
		return Header{}, nil, read, fmt.Errorf("codec: payload short by %d bytes: %w", size-got-m, ErrTruncated)
	}
	frame = frame[:size]
	h, _, _, err := DecodeFrame(frame)
	if err != nil {
		return Header{}, nil, read, err
	}
	return h, frame, read, nil
}

// frameSize validates a frame header's magic, version and declared length
// and returns the length of the whole frame.
func frameSize(hdr []byte) (int, error) {
	if !bytes.Equal(hdr[:4], Magic[:]) {
		return 0, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != Version {
		return 0, fmt.Errorf("codec: format version %d (this build reads %d): %w", v, Version, ErrVersion)
	}
	plen := binary.LittleEndian.Uint64(hdr[16:24])
	if plen > maxSanePayload {
		return 0, fmt.Errorf("codec: declared payload of %d bytes: %w", plen, ErrTruncated)
	}
	return headerLen + int(plen) + crcLen, nil
}

// DecodeFrame reads one frame from the front of b and additionally returns
// the remaining bytes, for composing frames into larger messages. The
// payload and the rest are windows into b: nothing is copied.
func DecodeFrame(b []byte) (Header, []byte, []byte, error) {
	if len(b) < headerLen {
		return Header{}, nil, nil, fmt.Errorf("codec: reading header: %w", ErrTruncated)
	}
	size, err := frameSize(b)
	if err != nil {
		return Header{}, nil, nil, err
	}
	if len(b) < size {
		return Header{}, nil, nil, fmt.Errorf("codec: payload short by %d bytes: %w", size-len(b), ErrTruncated)
	}
	end := size - crcLen
	if crc32.Checksum(b[:end], castagnoli) != binary.LittleEndian.Uint32(b[end:]) {
		return Header{}, nil, nil, ErrChecksum
	}
	h := Header{Version: Version, Kind: Kind(b[6]), Tag: Tag(b[7]), Fingerprint: binary.LittleEndian.Uint64(b[8:16])}
	return h, b[headerLen:end:end], b[size:], nil
}
