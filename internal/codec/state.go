package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// readAt is the most a streamed frame is read at once, and the
// StateReader's first buffer size. Reads that size keep the bytes in
// cache for the checksum and the merge that follow them. The buffer is
// reused across the frame and grows, doubling, only when one window must
// hold more than it does: one vertex share, for a state.
const readAt = 256 << 10

// StateReader serves a checkpoint frame's payload to the code restoring it
// a window at a time: the mirror of FrameWriter. Open streams a frame from
// any reader but a buffer through one: it reads the header, hands the
// opener the params and the StateReader, and the opener merges the state
// one vertex share at a time as it arrives, from a buffer reused across
// the frame. Each read takes at most readAt bytes into the buffer's free
// room and checksums them, on the caller's goroutine, so a restore reads,
// checksums and allocates the same on every run; the CRC is compared
// after the last state byte, and nothing past the frame's end is read.
//
// A frame read whole first — from a *bytes.Buffer or a Verified buffer,
// which Open reads in place, or by ReadCheckpoint, which backs every
// ReadFrom — is served in place, as one window, its CRC already checked
// (Verified reports it).
//
// Windows are views of the reader's buffer: valid until the next Next,
// and to be copied by whatever keeps their bytes.
type StateReader struct {
	h      Header
	r      io.Reader // the stream; nil when buf holds the whole verified payload
	buf    []byte    // buf[off:] is the window: bytes read but not yet consumed
	off    int
	unread int    // payload bytes not yet in buf
	crc    uint32 // CRC-32C of the frame bytes read so far
	n      int64  // frame bytes read
	err    error  // the first read error, sticky
}

// memState serves the payload of a verified frame held whole in memory.
func memState(h Header, frame []byte) *StateReader {
	return &StateReader{h: h, buf: frame[headerLen : len(frame)-crcLen], n: int64(len(frame))}
}

// streamState begins serving the payload of the frame whose header hdr
// was just read from r: size is the whole frame's length. When r reports
// its remaining length (Len() int, as bytes.Reader does) a frame that
// cannot be there fails at once.
func streamState(r io.Reader, hdr []byte, size int) (*StateReader, error) {
	if lr, ok := r.(interface{ Len() int }); ok {
		if avail := lr.Len(); avail < size-headerLen {
			return nil, fmt.Errorf("codec: payload short by %d bytes: %w", size-headerLen-avail, ErrTruncated)
		}
	}
	return &StateReader{
		h:      Header{Version: Version, Kind: Kind(hdr[6]), Tag: Tag(hdr[7]), Fingerprint: binary.LittleEndian.Uint64(hdr[8:16])},
		r:      r,
		unread: size - FrameOverhead,
		crc:    crc32.Checksum(hdr, castagnoli),
		n:      int64(len(hdr)),
	}, nil
}

// Verified reports whether the whole payload is in memory, its checksum
// already verified: a merge can then check the whole state before it
// changes anything, as ReadFrom does.
func (sr *StateReader) Verified() bool { return sr.r == nil }

// Len returns the number of bytes not yet consumed, buffered or not. Once
// Open has taken the params, that is the rest of the state as the frame
// declares it; a stream can still end before it.
func (sr *StateReader) Len() int { return len(sr.buf) - sr.off + sr.unread }

// Next returns the window: the bytes buffered and not yet consumed, at
// least n of them unless fewer remain. It reads only while the window
// holds fewer than n, at most readAt bytes at a time; a stream that ends
// first fails ErrTruncated, and so does every later call.
func (sr *StateReader) Next(n int) ([]byte, error) {
	for n = min(n, sr.Len()); len(sr.buf)-sr.off < n; {
		if err := sr.fill(); err != nil {
			return nil, err
		}
	}
	return sr.buf[sr.off:], nil
}

// Discard consumes the window's first n bytes.
func (sr *StateReader) Discard(n int) { sr.off += n }

// fill reads more of the payload, at most readAt bytes and no more than
// the buffer's free room takes, and checksums it. When the buffer is full
// it first moves the window to the front, or, if the window fills the
// buffer, into a new buffer twice as long. So the buffer grows only when
// one window outgrows it, and never past twice the bytes that have
// arrived (or readAt) nor past the frame: a declared length that lies
// costs no more memory than the bytes actually sent.
func (sr *StateReader) fill() error {
	if sr.err != nil {
		return sr.err
	}
	if len(sr.buf) == cap(sr.buf) {
		w := sr.buf[sr.off:]
		if sr.off == 0 {
			sr.buf = append(make([]byte, 0, min(max(2*cap(sr.buf), readAt), len(w)+sr.unread)), w...)
		} else {
			sr.buf = sr.buf[:copy(sr.buf, w)]
		}
		sr.off = 0
	}
	room := sr.buf[len(sr.buf):min(cap(sr.buf), len(sr.buf)+min(sr.unread, readAt))]
	m, err := sr.r.Read(room)
	sr.crc = crc32.Update(sr.crc, castagnoli, room[:m])
	sr.n += int64(m)
	sr.buf = sr.buf[:len(sr.buf)+m]
	if sr.unread -= m; err != nil && sr.unread > 0 {
		sr.err = fmt.Errorf("codec: payload short by %d bytes: %w", sr.unread+crcLen, ErrTruncated)
	}
	return sr.err
}

// params checks that the frame is a checkpoint, takes its params and
// verifies that the header fingerprint commits to them. The StateReader
// then serves the state.
func (sr *StateReader) params() ([]byte, error) {
	if sr.h.Kind != KindCheckpoint {
		return nil, fmt.Errorf("codec: expected a checkpoint frame, got kind %d: %w", sr.h.Kind, ErrUnknownType)
	}
	w, err := sr.Next(4)
	if err != nil {
		return nil, err
	}
	if len(w) < 4 {
		return nil, fmt.Errorf("codec: checkpoint payload of %d bytes: %w", len(w), ErrTruncated)
	}
	plen := binary.LittleEndian.Uint32(w)
	if uint64(sr.Len()-4) < uint64(plen) {
		return nil, fmt.Errorf("codec: params length %d exceeds payload: %w", plen, ErrTruncated)
	}
	if w, err = sr.Next(4 + int(plen)); err != nil {
		return nil, err
	}
	params := bytes.Clone(w[4 : 4+plen])
	sr.Discard(4 + int(plen))
	if Fingerprint(sr.h.Tag, params) != sr.h.Fingerprint {
		return nil, fmt.Errorf("codec: header fingerprint does not match embedded params: %w", ErrFingerprint)
	}
	return params, nil
}

// finish consumes what remains of a streamed frame, then reads its CRC
// and returns the verdict: a frame that ends early fails ErrTruncated, a
// corrupt one ErrChecksum. A Verified payload was checked whole before it
// was served.
func (sr *StateReader) finish() error {
	if sr.r == nil {
		return nil
	}
	for sr.Len() > 0 && sr.err == nil {
		if w, err := sr.Next(1); err == nil {
			sr.Discard(len(w))
		}
	}
	if sr.err != nil {
		return sr.err
	}
	var sum [crcLen]byte
	m, err := io.ReadFull(sr.r, sum[:])
	sr.n += int64(m)
	switch {
	case err != nil:
		return fmt.Errorf("codec: reading checksum: %w", ErrTruncated)
	case binary.LittleEndian.Uint32(sum[:]) != sr.crc:
		return ErrChecksum
	}
	return nil
}
