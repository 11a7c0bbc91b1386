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
//	4      2    format version (little-endian uint16; currently 2)
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
const Version uint16 = 2

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
// A retired tag's structure is gone; its frames are refused with
// ErrUnknownType, and the number is never reused.
const (
	TagSpanning   Tag = 1 // sketch.SpanningSketch
	TagSkeleton   Tag = 2 // sketch.SkeletonSketch
	TagEdgeConn   Tag = 3 // retired; never reuse (a skeleton's state under its own tag)
	TagVertexConn Tag = 4 // vertexconn.Sketch
	TagEstimator  Tag = 5 // vertexconn.Estimator
	TagReconstr   Tag = 6 // retired; never reuse (a skeleton's state under its own tag)
	TagSparsify   Tag = 7 // sparsify.Sketch
	TagBecker     Tag = 8 // reconstruct.BeckerSketch (shares only)
	TagHybrid     Tag = 9 // hybrid.Sketch (adaptive exact/sketch wrapper)
)

var tagNames = [...]string{TagSpanning: "spanning", TagSkeleton: "skeleton", TagEdgeConn: "edgeconn",
	TagVertexConn: "vertexconn", TagEstimator: "vertexconn-estimator", TagReconstr: "reconstruct",
	TagSparsify: "sparsify", TagBecker: "becker", TagHybrid: "hybrid"}

// retired reports whether t is a retired tag.
func (t Tag) retired() bool { return t == TagEdgeConn || t == TagReconstr }

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
	dst = append(beginFrame(grow(dst, FrameOverhead+len(payload)), h, len(payload)), payload...)
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

// beginFrame appends h's header declaring a plen-byte payload.
func beginFrame(dst []byte, h Header, plen int) []byte {
	dst = append(dst, Magic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, Version)
	dst = append(dst, byte(h.Kind), byte(h.Tag))
	dst = binary.LittleEndian.AppendUint64(dst, h.Fingerprint)
	return binary.LittleEndian.AppendUint64(dst, uint64(plen))
}

// finishFrame completes the frame begun at dst[start:], whose payload the
// caller appended in place: it patches the payload length and appends the
// CRC, one pass over the frame.
func finishFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint64(dst[start+16:], uint64(len(dst)-start-headerLen))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// WriteFrame writes a complete frame to w and returns the bytes written.
func WriteFrame(w io.Writer, h Header, payload []byte) (int64, error) {
	n, err := w.Write(AppendFrame(nil, h, payload))
	return int64(n), err
}

// flushAt is the FrameWriter's flush threshold. Once its buffer holds this
// many bytes they are checksummed and handed to the underlying writer while
// still in cache, and the buffer is reused; it never holds much more than
// flushAt plus one append (one vertex share), however long the frame.
const flushAt = 256 << 10

// FrameWriter streams a frame whose header, with the payload length, has
// already been written: it checksums the bytes on their way to the
// underlying writer and holds the payload to its declared length, which
// can no longer change. Errors are sticky: after the first one nothing
// more is written, and Append no longer calls its function.
type FrameWriter struct {
	w    io.Writer
	buf  []byte
	crc  uint32
	left int   // bytes before the CRC not yet taken, header included
	n    int64 // bytes w accepted
	err  error
}

// newFrameWriter begins a size-byte frame for h on w. Its buffer holds
// the header only: Reserve, or the appends themselves, size it, so a
// writer that reserves allocates its buffer once.
func newFrameWriter(w io.Writer, h Header, size int) *FrameWriter {
	return &FrameWriter{w: w, buf: beginFrame(nil, h, size-FrameOverhead), left: size - crcLen}
}

// Append lets f append to the frame in place, in the writer's buffer, and
// flushes the buffer once it holds flushAt bytes.
func (fw *FrameWriter) Append(f func([]byte) []byte) {
	if fw.err != nil {
		return
	}
	if fw.buf = f(fw.buf); len(fw.buf) >= flushAt {
		fw.flush()
	}
}

// Reserve readies the buffer for appends of up to n bytes each: it grows
// the buffer now, if it must, so that no such Append grows it. Between
// calls the buffer holds less than flushAt bytes, so flushAt+n suffices,
// and never more than the rest of the frame.
func (fw *FrameWriter) Reserve(n int) {
	fw.buf = grow(fw.buf, min(flushAt+n, fw.left+crcLen)-len(fw.buf))
}

// Write appends p to the frame (io.Writer). A p of flushAt bytes or more
// is checksummed and forwarded after the buffer, without being copied.
func (fw *FrameWriter) Write(p []byte) (int, error) {
	if len(p) < flushAt {
		fw.Append(func(b []byte) []byte { return append(b, p...) })
	} else if fw.flush(); fw.err == nil {
		fw.emit(p)
	}
	if fw.err != nil {
		return 0, fw.err
	}
	return len(p), nil
}

// flush checksums and writes the buffer and empties it.
func (fw *FrameWriter) flush() {
	fw.emit(fw.buf)
	fw.buf = fw.buf[:0]
}

// emit checksums and writes p, which must fit the declared length: bytes
// past it are never written.
func (fw *FrameWriter) emit(p []byte) {
	switch {
	case fw.err != nil || len(p) == 0:
		return
	case len(p) > fw.left:
		fw.err = overrun(len(p) - fw.left)
		return
	}
	fw.left -= len(p)
	fw.crc = crc32.Update(fw.crc, castagnoli, p)
	fw.write(p)
}

func (fw *FrameWriter) write(p []byte) {
	m, err := fw.w.Write(p)
	fw.n += int64(m)
	if err == nil && m < len(p) {
		err = io.ErrShortWrite
	}
	fw.err = err
}

// finish writes what is buffered and the CRC, in one Write, and returns
// the bytes w accepted. A payload that ends short of its declared length
// gets no CRC: the receiver sees a truncated frame.
func (fw *FrameWriter) finish() (int64, error) {
	switch d := fw.left - len(fw.buf); {
	case fw.err != nil:
	case d < 0:
		fw.err = overrun(-d)
	case d > 0:
		fw.err = fmt.Errorf("codec: payload ends %d bytes short: %w", d, ErrStateLength)
	default:
		fw.crc = crc32.Update(fw.crc, castagnoli, fw.buf)
		fw.write(binary.LittleEndian.AppendUint32(fw.buf, fw.crc))
	}
	return fw.n, fw.err
}

func overrun(by int) error {
	return fmt.Errorf("codec: payload runs %d bytes past its end: %w", by, ErrStateLength)
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
// through checksum, byte for byte as the sender wrote it. When r is
// a *bytes.Buffer the frame is verified where it lies and returned as a
// window into the buffer's backing array (capacity clipped to the frame),
// with no allocation or copy; the buffer advances past it only on success.
// Callers that keep any of the frame's bytes past the buffer's next write
// must copy them: every Opener and ReadFrom does. From any other reader the
// frame is read into an exact-size buffer of its own; when r reports its
// remaining length (Len() int, as bytes.Reader does) the declared length is
// checked against it and the frame is read with one allocation.
//
// A Verified buffer is read in place the same way, without the checksum.
func ReadFrameBytes(r io.Reader) (Header, []byte, int64, error) {
	switch buf := r.(type) {
	case *bytes.Buffer:
		return readInPlace(buf, true)
	case Verified:
		return readInPlace(buf.Buffer, false)
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

// Verified marks a buffer of frames this process has already verified,
// checksum included, and has kept in memory since: a frame the TCP gather
// pulled with ReadFrameBytes, say. ReadFrameBytes still checks each
// frame's magic, version and declared length but skips its CRC, which
// would only recompute what was just checked. Bytes from outside the
// process must never be wrapped.
type Verified struct{ *bytes.Buffer }

// readInPlace reads one frame from the front of buf without copying it.
func readInPlace(buf *bytes.Buffer, checkCRC bool) (Header, []byte, int64, error) {
	h, payload, _, err := decodeFrame(buf.Bytes(), checkCRC)
	if err != nil {
		return Header{}, nil, 0, err
	}
	size := FrameOverhead + len(payload)
	return h, buf.Next(size)[:size:size], int64(size), nil
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
	return decodeFrame(b, true)
}

// decodeFrame is DecodeFrame, checking the CRC only when checkCRC is set.
func decodeFrame(b []byte, checkCRC bool) (Header, []byte, []byte, error) {
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
	if checkCRC && crc32.Checksum(b[:end], castagnoli) != binary.LittleEndian.Uint32(b[end:]) {
		return Header{}, nil, nil, ErrChecksum
	}
	h := Header{Version: Version, Kind: Kind(b[6]), Tag: Tag(b[7]), Fingerprint: binary.LittleEndian.Uint64(b[8:16])}
	return h, b[headerLen:end:end], b[size:], nil
}
