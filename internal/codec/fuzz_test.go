package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// FuzzCodecRoundTrip checks that any frame we encode decodes back to exactly
// the header and payload that went in, regardless of field values.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint64(0), []byte(nil))
	f.Add(uint8(2), uint8(8), uint64(1<<63), []byte("interior"))
	f.Add(uint8(0), uint8(255), ^uint64(0), bytes.Repeat([]byte{0xAB}, 1000))
	f.Fuzz(func(t *testing.T, kind, tag uint8, fp uint64, payload []byte) {
		h := Header{Version: Version, Kind: Kind(kind), Tag: Tag(tag), Fingerprint: fp}
		buf := AppendFrame(nil, h, payload)
		got, gotPayload, n, err := ReadFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("valid frame failed to decode: %v", err)
		}
		if n != int64(len(buf)) {
			t.Fatalf("consumed %d of %d bytes", n, len(buf))
		}
		if got != h {
			t.Fatalf("header round-trip: got %+v, want %+v", got, h)
		}
		if !bytes.Equal(gotPayload, payload) {
			t.Fatalf("payload round-trip mismatch: %d vs %d bytes", len(gotPayload), len(payload))
		}
	})
}

// FuzzCodecDecode feeds arbitrary bytes to every decode entry point: none may
// panic, and any failure must be one of the typed sentinels.
func FuzzCodecDecode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("GSKF"))
	f.Add(validSeed())
	f.Add(append(validSeed(), 0xFF))
	long := validSeed() // declares more than readChunk: the chunked read
	binary.LittleEndian.PutUint64(long[16:], 3*readChunk)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, _, err := ReadFrame(bytes.NewReader(data))
		if err != nil && !IsDecodeError(err) {
			t.Fatalf("ReadFrame: untyped error %v", err)
		}
		// Readers without Len() take the chunked path and a bytes.Buffer is
		// read in place; they must agree with the sized path on the header,
		// the payload and the error sentinel.
		inPlace := bytes.NewBuffer(bytes.Clone(data))
		for _, r := range []io.Reader{
			iotest.OneByteReader(bytes.NewReader(data)),
			iotest.HalfReader(bytes.NewReader(data)),
			inPlace,
		} {
			gh, gp, gn, gerr := ReadFrame(r)
			if gh != h || !bytes.Equal(gp, payload) || sentinel(gerr) != sentinel(err) {
				t.Fatalf("%T: got (%+v, %d bytes, %v), sized path (%+v, %d bytes, %v)",
					r, gh, len(gp), gerr, h, len(payload), err)
			}
			if r == inPlace && gerr == nil && int64(len(data)-inPlace.Len()) != gn {
				t.Fatalf("in-place read returned n = %d but advanced the buffer %d bytes", gn, len(data)-inPlace.Len())
			}
		}
		// A Verified buffer skips only the CRC: on every input the checked
		// path accepts it must read the same frame and advance as far.
		if err == nil {
			verified := bytes.NewBuffer(bytes.Clone(data))
			vh, vp, vn, verr := ReadFrame(Verified{verified})
			if verr != nil || vh != h || !bytes.Equal(vp, payload) || vn != int64(len(data)-verified.Len()) ||
				verified.Len() != inPlace.Len() {
				t.Fatalf("Verified: got (%+v, %d bytes, n %d, %v), checked path (%+v, %d bytes)",
					vh, len(vp), vn, verr, h, len(payload))
			}
		}
		if _, _, _, err := DecodeFrame(data); err != nil && !IsDecodeError(err) {
			t.Fatalf("DecodeFrame: untyped error %v", err)
		}
		if _, err := Open(bytes.NewReader(data)); err != nil && IsDecodeError(err) == false {
			// Open may also fail inside a registered opener on a frame
			// that happens to validate; those errors wrap package
			// sentinels from the sketch packages, not ours, and are fine.
			// What must never happen is a panic — reaching here proves that.
			_ = err
		}
		if _, _, _, err := DecodeShareFrame(data, TagSkeleton, 12345, 16); err != nil && !IsDecodeError(err) {
			t.Fatalf("DecodeShareFrame: untyped error %v", err)
		}
		if _, err := ReadCheckpoint(bytes.NewReader(data), TagSpanning, 67890, func(*StateReader) error { return nil }); err != nil && !IsDecodeError(err) {
			t.Fatalf("ReadCheckpoint: untyped error %v", err)
		}
	})
}

func validSeed() []byte {
	params := AppendUint64s(nil, 8, 3, 99)
	return checkpointFrame(TagSpanning, params, []byte("state"))
}

// sentinel returns the package sentinel err wraps, or nil.
func sentinel(err error) error {
	for _, s := range []error{ErrBadMagic, ErrVersion, ErrUnknownType, ErrFingerprint, ErrChecksum, ErrTruncated} {
		if errors.Is(err, s) {
			return s
		}
	}
	return err
}
