package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"

	"graphsketch"
)

func validFrame(t *testing.T) []byte {
	t.Helper()
	h := Header{Version: Version, Kind: KindCheckpoint, Tag: TagSpanning, Fingerprint: 0xdeadbeefcafe}
	return AppendFrame(nil, h, []byte("payload bytes here"))
}

// checkpointFrame builds a checkpoint frame around a literal state.
func checkpointFrame(tag Tag, params, state []byte) []byte {
	var buf bytes.Buffer
	if _, err := WriteCheckpoint(&buf, tag, params, len(state), writeBytes(state)); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// writeBytes is a state writer for a literal state.
func writeBytes(state []byte) func(*FrameWriter) error {
	return func(fw *FrameWriter) error {
		_, err := fw.Write(state)
		return err
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5}
	h := Header{Version: Version, Kind: KindShare, Tag: TagSkeleton, Fingerprint: 42}
	buf := AppendFrame(nil, h, payload)
	if len(buf) != FrameOverhead+len(payload) {
		t.Fatalf("frame length %d, want %d", len(buf), FrameOverhead+len(payload))
	}
	got, gotPayload, n, err := ReadFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if n != int64(len(buf)) {
		t.Fatalf("consumed %d bytes, want %d", n, len(buf))
	}
	if got != h {
		t.Fatalf("header %+v, want %+v", got, h)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Fatalf("payload %v, want %v", gotPayload, payload)
	}
}

func TestWriteFrameMatchesAppend(t *testing.T) {
	h := Header{Version: Version, Kind: KindCheckpoint, Tag: TagSparsify, Fingerprint: 7}
	var w bytes.Buffer
	n, err := WriteFrame(&w, h, []byte("abc"))
	if err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	want := AppendFrame(nil, h, []byte("abc"))
	if n != int64(len(want)) || !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("WriteFrame bytes differ from AppendFrame")
	}
}

func TestDecodeFrameRest(t *testing.T) {
	a := AppendFrame(nil, Header{Version: Version, Kind: KindShare, Tag: TagEdgeConn, Fingerprint: 1}, []byte("aa"))
	b := AppendFrame(nil, Header{Version: Version, Kind: KindShare, Tag: TagEdgeConn, Fingerprint: 1}, []byte("bb"))
	joined := append(append([]byte(nil), a...), b...)
	_, p1, rest, err := DecodeFrame(joined)
	if err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if string(p1) != "aa" {
		t.Fatalf("first payload %q", p1)
	}
	_, p2, rest, err := DecodeFrame(rest)
	if err != nil {
		t.Fatalf("second frame: %v", err)
	}
	if string(p2) != "bb" || len(rest) != 0 {
		t.Fatalf("second payload %q, rest %d bytes", p2, len(rest))
	}
}

// TestCorruption corrupts each header field of a valid frame in turn and
// asserts the matching typed sentinel — never a panic, never a nil error.
func TestCorruption(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func([]byte) []byte
		sentinel error
	}{
		{
			name:     "magic",
			mutate:   func(b []byte) []byte { b[0] = 'X'; return b },
			sentinel: ErrBadMagic,
		},
		{
			name:     "version",
			mutate:   func(b []byte) []byte { b[4] = 0xFF; b[5] = 0xFF; return b },
			sentinel: ErrVersion,
		},
		{
			name: "checksum-trailer",
			mutate: func(b []byte) []byte {
				b[len(b)-1] ^= 0xA5
				return b
			},
			sentinel: ErrChecksum,
		},
		{
			// Flipping the kind byte invalidates the CRC: envelope metadata
			// is covered by the checksum, so tampering is corruption.
			name:     "kind-byte",
			mutate:   func(b []byte) []byte { b[6] ^= 0x7F; return b },
			sentinel: ErrChecksum,
		},
		{
			name:     "type-tag",
			mutate:   func(b []byte) []byte { b[7] ^= 0x7F; return b },
			sentinel: ErrChecksum,
		},
		{
			name:     "fingerprint",
			mutate:   func(b []byte) []byte { b[8] ^= 0x01; return b },
			sentinel: ErrChecksum,
		},
		{
			name:     "payload-byte",
			mutate:   func(b []byte) []byte { b[headerLen] ^= 0x10; return b },
			sentinel: ErrChecksum,
		},
		{
			name:     "truncated-header",
			mutate:   func(b []byte) []byte { return b[:headerLen-5] },
			sentinel: ErrTruncated,
		},
		{
			name:     "truncated-payload",
			mutate:   func(b []byte) []byte { return b[:len(b)-crcLen-3] },
			sentinel: ErrTruncated,
		},
		{
			name:     "empty",
			mutate:   func(b []byte) []byte { return nil },
			sentinel: ErrTruncated,
		},
		{
			name: "lying-length",
			mutate: func(b []byte) []byte {
				// Declare far more payload than is present.
				for i := 16; i < 24; i++ {
					b[i] = 0xEE
				}
				return b
			},
			sentinel: ErrTruncated,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := tc.mutate(validFrame(t))
			_, _, _, err := ReadFrame(bytes.NewReader(buf))
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("got error %v, want %v", err, tc.sentinel)
			}
			if !IsDecodeError(err) {
				t.Fatalf("IsDecodeError(%v) = false", err)
			}
		})
	}
}

// TestCorruptionViaOpen drives the same corruptions through the high-level
// restore entry point: Open must surface the typed sentinel too.
func TestCorruptionViaOpen(t *testing.T) {
	params := AppendUint64s(nil, 8, 3, 99)
	frame := checkpointFrame(TagSpanning, params, []byte("state"))

	bad := append([]byte(nil), frame...)
	bad[len(bad)-2] ^= 0xFF
	if _, err := Open(bytes.NewReader(bad)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt frame: got %v, want ErrChecksum", err)
	}

	// Fingerprint header field rewritten consistently with a fresh CRC but
	// inconsistent with the embedded params → ErrFingerprint.
	h := Header{Version: Version, Kind: KindCheckpoint, Tag: TagSpanning, Fingerprint: 12345}
	payload := frame[headerLen : len(frame)-crcLen]
	forged := AppendFrame(nil, h, payload)
	if _, err := Open(bytes.NewReader(forged)); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("forged fingerprint: got %v, want ErrFingerprint", err)
	}

	// A share frame where a checkpoint is required → ErrUnknownType.
	share := AppendShareFrame(nil, TagSpanning, Fingerprint(TagSpanning, params), 0, 1,
		func(b []byte) []byte { return append(b, 'x') })
	if _, err := Open(bytes.NewReader(share)); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("share via Open: got %v, want ErrUnknownType", err)
	}

	// An unregistered tag (nothing registers TagBecker checkpoints) →
	// ErrUnknownType. Use a tag value far outside the registered set so the
	// test is independent of which packages are linked in.
	const ghost = Tag(250)
	ghostFrame := checkpointFrame(ghost, params, []byte("state"))
	if _, err := Open(bytes.NewReader(ghostFrame)); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("unregistered tag: got %v, want ErrUnknownType", err)
	}
}

func TestReadCheckpointIdentity(t *testing.T) {
	params := AppendUint64s(nil, 16, 2, 7)
	fp := Fingerprint(TagSkeleton, params)
	frame := checkpointFrame(TagSkeleton, params, []byte("skeleton-state"))

	var state []byte
	n, err := ReadCheckpoint(bytes.NewReader(frame), TagSkeleton, fp, func(sr *StateReader) error {
		state, _ = sr.Next(sr.Len())
		sr.Discard(len(state))
		return nil
	})
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	if n != int64(len(frame)) || string(state) != "skeleton-state" {
		t.Fatalf("n=%d state=%q", n, state)
	}

	// Same tag, different params → different fingerprint → refused.
	otherFP := Fingerprint(TagSkeleton, AppendUint64s(nil, 16, 2, 8))
	if _, err := ReadCheckpoint(bytes.NewReader(frame), TagSkeleton, otherFP, nil); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("cross-seed: got %v, want ErrFingerprint", err)
	}
	// Different tag entirely → refused.
	if _, err := ReadCheckpoint(bytes.NewReader(frame), TagSpanning, fp, nil); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("cross-tag: got %v, want ErrFingerprint", err)
	}
}

func TestShareFrameRoundTrip(t *testing.T) {
	params := AppendUint64s(nil, 8, 1, 3)
	fp := Fingerprint(TagSkeleton, params)
	interior := []byte{9, 8, 7, 6}
	frame := AppendShareFrame(nil, TagSkeleton, fp, 5, len(interior),
		func(b []byte) []byte { return append(b, interior...) })
	if len(frame) != ShareOverhead+len(interior) {
		t.Fatalf("share frame length %d, want %d", len(frame), ShareOverhead+len(interior))
	}
	v, got, rest, err := DecodeShareFrame(frame, TagSkeleton, fp, 8)
	if err != nil {
		t.Fatalf("DecodeShareFrame: %v", err)
	}
	if v != 5 || !bytes.Equal(got, interior) || len(rest) != 0 {
		t.Fatalf("v=%d interior=%v rest=%d", v, got, len(rest))
	}
	// Cross-identity share → ErrFingerprint.
	if _, _, _, err := DecodeShareFrame(frame, TagSkeleton, fp+1, 8); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("cross-identity share: got %v, want ErrFingerprint", err)
	}
	// A share for a vertex the receiver does not have → ErrVertexRange.
	if _, _, _, err := DecodeShareFrame(frame, TagSkeleton, fp, 5); !errors.Is(err, graphsketch.ErrVertexRange) || !IsDecodeError(err) {
		t.Fatalf("share for vertex 5 of 5: got %v, want graphsketch.ErrVertexRange", err)
	}
}

func TestFingerprintCanonical(t *testing.T) {
	a := Fingerprint(TagSpanning, AppendUint64s(nil, 8, 3, 1))
	b := Fingerprint(TagSpanning, AppendUint64s(nil, 8, 3, 1))
	if a != b {
		t.Fatalf("identical params fingerprint differently")
	}
	if a == Fingerprint(TagSkeleton, AppendUint64s(nil, 8, 3, 1)) {
		t.Fatalf("tag not mixed into fingerprint")
	}
	if a == Fingerprint(TagSpanning, AppendUint64s(nil, 8, 3, 2)) {
		t.Fatalf("seed not mixed into fingerprint")
	}
}

func TestParamReader(t *testing.T) {
	p := ReadParams(AppendUint64s(nil, 1, 2, 3))
	if a, b, c := p.Uint64(), p.Uint64(), p.Uint64(); a != 1 || b != 2 || c != 3 {
		t.Fatalf("values %d %d %d", a, b, c)
	}
	if err := p.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
	short := ReadParams(AppendUint64s(nil, 1, 2, 3))
	for i := 0; i < 4; i++ {
		short.Uint64()
	}
	if err := short.Done(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short read: got %v, want ErrTruncated", err)
	}
	trailing := ReadParams(AppendUint64s(nil, 1, 2))
	trailing.Uint64()
	if err := trailing.Done(); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("trailing word: got %v, want ErrUnknownType", err)
	}
}

func TestParamReaderInt(t *testing.T) {
	p := ReadParams(AppendUint64s(nil, 17))
	if v := p.Int("n"); v != 17 || p.Done() != nil {
		t.Fatalf("Int(17) = %d, %v", v, p.Done())
	}
	absurd := ReadParams(AppendUint64s(nil, 1<<40, 5))
	absurd.Int("n")
	if v := absurd.Uint64(); v != 0 {
		t.Fatalf("read %d after an error; want 0", v)
	}
	if err := absurd.Done(); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("Int accepted an absurd value: %v", err)
	}
}

func TestReadFrameBoundedAllocation(t *testing.T) {
	// A header that declares a payload above the sanity cap must be refused
	// before any large allocation happens.
	h := validFrame(t)[:headerLen]
	for i := 16; i < 24; i++ {
		h[i] = 0xFF
	}
	_, _, _, err := ReadFrame(io.MultiReader(bytes.NewReader(h), bytes.NewReader(make([]byte, 1024))))
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("oversized declared payload: got %v, want ErrTruncated", err)
	}
}

// TestReadFrameLyingLengthBoundedAllocation pins the chunked read: a header
// declaring the largest accepted payload, followed by 100 bytes from a
// reader that cannot report its length, fails ErrTruncated having
// allocated memory proportional to the bytes received, not the declared
// length.
func TestReadFrameLyingLengthBoundedAllocation(t *testing.T) {
	h := validFrame(t)[:headerLen]
	binary.LittleEndian.PutUint64(h[16:], maxSanePayload)
	in := append(h, make([]byte, 100)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := ReadFrame(iotest.OneByteReader(bytes.NewReader(in)))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("lying length: got %v, want ErrTruncated", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20 {
		t.Fatalf("lying length allocated %d bytes, want <= 2 MiB", got)
	}
}

// TestReadFrameChunkedExact reads a frame several chunks long through a
// reader without Len(): the frame comes back whole and exact-size.
func TestReadFrameChunkedExact(t *testing.T) {
	payload := bytes.Repeat([]byte("chunk"), readChunk)
	frame := AppendFrame(nil, Header{Kind: KindPull, Tag: TagSpanning, Fingerprint: 3}, payload)
	_, got, n, err := ReadFrameBytes(iotest.HalfReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, frame) || cap(got) != len(frame) || n != int64(len(frame)) {
		t.Fatalf("got %d bytes (cap %d, consumed %d), want the %d-byte frame exactly",
			len(got), cap(got), n, len(frame))
	}
}

// TestDecodeFrameZeroCopy pins DecodeFrame to windows of its input.
func TestDecodeFrameZeroCopy(t *testing.T) {
	frame := validFrame(t)
	_, payload, _, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if &payload[0] != &frame[headerLen] {
		t.Fatal("DecodeFrame copied the payload")
	}
}

// TestReadFrameBytesInPlace pins the in-place read: a frame at the front of
// a bytes.Buffer comes back as a window into the buffer, capacity clipped
// so an append cannot overwrite what follows, and the buffer advances past
// exactly the frame. A corrupt frame leaves the buffer unread.
func TestReadFrameBytesInPlace(t *testing.T) {
	frame := validFrame(t)
	backing := append(bytes.Clone(frame), "next"...)
	buf := bytes.NewBuffer(backing)
	_, got, n, err := ReadFrameBytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &backing[0] || !bytes.Equal(got, frame) || cap(got) != len(frame) {
		t.Fatalf("got %d bytes (cap %d), want a window onto the %d-byte frame", len(got), cap(got), len(frame))
	}
	if n != int64(len(frame)) || buf.String() != "next" {
		t.Fatalf("consumed %d, left %q; want %d and \"next\"", n, buf.String(), len(frame))
	}
	backing[len(frame)-1] ^= 1
	buf = bytes.NewBuffer(backing)
	if _, _, n, err := ReadFrameBytes(buf); !errors.Is(err, ErrChecksum) || n != 0 || buf.Len() != len(backing) {
		t.Fatalf("corrupt frame: got %v, consumed %d, %d bytes left; want ErrChecksum and the buffer unread", err, n, buf.Len())
	}
}

// TestReadFrameBytesVerified: a Verified buffer is read in place like a
// plain one, with the header checks but without the CRC.
func TestReadFrameBytesVerified(t *testing.T) {
	frame := validFrame(t)
	backing := append(bytes.Clone(frame), "next"...)
	buf := bytes.NewBuffer(backing)
	h, got, n, err := ReadFrameBytes(Verified{buf})
	if err != nil || &got[0] != &backing[0] || !bytes.Equal(got, frame) || n != int64(len(frame)) || buf.String() != "next" {
		t.Fatalf("got (%v, %d bytes, n %d, %q left), want the frame in place", err, len(got), n, buf.String())
	}
	if want, _, _, _ := DecodeFrame(frame); h != want {
		t.Fatalf("header %+v, want %+v", h, want)
	}
	backing[len(frame)-1] ^= 1
	if _, _, _, err := ReadFrameBytes(Verified{bytes.NewBuffer(backing)}); err != nil {
		t.Fatalf("Verified read checked the CRC: %v", err)
	}
	backing[0] ^= 1
	if _, _, _, err := ReadFrameBytes(Verified{bytes.NewBuffer(backing)}); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: got %v, want ErrBadMagic", err)
	}
	if _, _, _, err := ReadFrameBytes(Verified{bytes.NewBuffer(frame[:len(frame)-1])}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short frame: got %v, want ErrTruncated", err)
	}
}

// writeLog records the length of every Write.
type writeLog struct {
	bytes.Buffer
	writes []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.Buffer.Write(p)
}

// TestCheckpointStreams: a state much longer than the flush threshold goes
// out in several writes, none much longer than the threshold, and the
// frame is byte for byte the one AppendFrame builds; an io.Writer write of
// a long slice is forwarded whole.
func TestCheckpointStreams(t *testing.T) {
	params := AppendUint64s(nil, 1, 2, 3)
	state := make([]byte, 3*flushAt+12345)
	for i := range state {
		state[i] = byte(i * 7)
	}
	payload := append(binary.LittleEndian.AppendUint32(nil, uint32(len(params))), params...)
	want := AppendFrame(nil, Header{Kind: KindCheckpoint, Tag: TagSkeleton, Fingerprint: Fingerprint(TagSkeleton, params)},
		append(payload, state...))
	const piece = 1000
	var w writeLog
	n, err := WriteCheckpoint(&w, TagSkeleton, params, len(state), func(fw *FrameWriter) error {
		for rest := state; len(rest) > 0; {
			p := rest[:min(piece, len(rest))]
			fw.Append(func(b []byte) []byte { return append(b, p...) })
			rest = rest[len(p):]
		}
		return nil
	})
	if err != nil || n != int64(len(want)) || !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("WriteCheckpoint: %d bytes, %v; want the %d-byte AppendFrame frame", n, err, len(want))
	}
	if len(w.writes) < 4 || slices.Max(w.writes) > flushAt+piece+crcLen {
		t.Fatalf("writes of %v bytes, want at least 4, each at most %d", w.writes, flushAt+piece+crcLen)
	}
	w = writeLog{}
	if _, err := WriteCheckpoint(&w, TagSkeleton, params, len(state), writeBytes(state)); err != nil || !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("Write path: %v, or bytes differ", err)
	}
	if len(w.writes) != 3 || w.writes[1] != len(state) {
		t.Fatalf("writes of %v bytes, want the header, the state whole, then the CRC", w.writes)
	}
}

// TestCheckpointStateLengthMismatch: a state writer that writes fewer or
// more bytes than it declared gets an error, and what reached the writer is
// never a frame.
func TestCheckpointStateLengthMismatch(t *testing.T) {
	params := AppendUint64s(nil, 9)
	for _, size := range []int{10, 2*flushAt + 5} {
		state := bytes.Repeat([]byte{0x5a}, size)
		for _, declared := range []int{size - 1, size + 1, 0, 2 * size} {
			for _, via := range []string{"Append", "Write"} {
				var w bytes.Buffer
				_, err := WriteCheckpoint(&w, TagSpanning, params, declared, func(fw *FrameWriter) error {
					if via == "Write" {
						_, err := fw.Write(state)
						return err
					}
					fw.Append(func(b []byte) []byte { return append(b, state...) })
					return nil
				})
				if !errors.Is(err, ErrStateLength) {
					t.Fatalf("%d-byte state declared as %d via %s: got %v, want ErrStateLength", size, declared, via, err)
				}
				if _, _, _, derr := DecodeFrame(w.Bytes()); derr == nil {
					t.Fatalf("%d-byte state declared as %d via %s: wrote a valid frame", size, declared, via)
				}
				if w.Len() > CheckpointSize(params, declared) {
					t.Fatalf("%d-byte state declared as %d via %s: wrote %d bytes, past the declared %d",
						size, declared, via, w.Len(), CheckpointSize(params, declared))
				}
			}
		}
	}
}

// failAfter accepts k bytes and then fails.
type failAfter struct{ k int }

var errInjected = errors.New("injected write failure")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) <= w.k {
		w.k -= len(p)
		return len(p), nil
	}
	n := w.k
	w.k = 0
	return n, errInjected
}

// TestCheckpointWriterFailure: a writer that fails mid-frame gets its error
// back with the bytes it accepted, and the state writer is not called
// again after the failure.
func TestCheckpointWriterFailure(t *testing.T) {
	params := AppendUint64s(nil, 9)
	state := bytes.Repeat([]byte{0xa5}, 3*flushAt)
	size := CheckpointSize(params, len(state))
	for _, k := range []int{0, 5, flushAt / 2, flushAt + 7, size - 1} {
		calls := 0
		n, err := WriteCheckpoint(&failAfter{k}, TagSpanning, params, len(state), func(fw *FrameWriter) error {
			for i := 0; i < len(state); i += 1024 {
				fw.Append(func(b []byte) []byte { calls++; return append(b, state[i:i+1024]...) })
			}
			return nil
		})
		if !errors.Is(err, errInjected) || n != int64(k) {
			t.Fatalf("failing after %d bytes: got (%d, %v)", k, n, err)
		}
		if calls*1024 > k+flushAt+1024 {
			t.Fatalf("failing after %d bytes: %d appends ran, past the failure", k, calls)
		}
	}
}

// TestStateReaderStreams serves a checkpoint's state through windows of
// varying length from a reader that returns short reads and hides its
// length: every window holds what was asked for, the bytes come through
// in order, the buffer grows only to twice the longest window, and the
// CRC checks out after the last byte.
func TestStateReaderStreams(t *testing.T) {
	state := make([]byte, 3<<20)
	for i := range state {
		state[i] = byte(i * 7 / 5)
	}
	params := AppendUint64s(nil, 1, 2)
	frame := checkpointFrame(TagSpanning, params, state)
	sr, err := readState(struct{ io.Reader }{iotest.HalfReader(bytes.NewReader(frame))})
	if err != nil {
		t.Fatal(err)
	}
	if p, err := sr.params(); err != nil || !bytes.Equal(p, params) {
		t.Fatalf("params %v, %v; want %v", p, err, params)
	}
	longest := 0
	for got, k := 0, 1; sr.Len() > 0; k = k*3 + 1 {
		n := k % (1 << 20)
		longest = max(longest, n)
		w, err := sr.Next(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(w) < min(n, sr.Len()) {
			t.Fatalf("asked for %d bytes, got a %d-byte window", n, len(w))
		}
		n = min(n, len(w))
		if !bytes.Equal(w[:n], state[got:got+n]) {
			t.Fatalf("window at %d differs", got)
		}
		sr.Discard(n)
		got += n
	}
	if c := cap(sr.buf); c > max(2*longest, readAt) {
		t.Errorf("buffer grew to %d bytes for windows of at most %d", c, longest)
	}
	if err := sr.finish(); err != nil {
		t.Fatal(err)
	}
	if sr.n != int64(len(frame)) {
		t.Fatalf("read %d bytes of a %d-byte frame", sr.n, len(frame))
	}
}

// TestOpenLyingLengthBoundedAllocation: a header declaring the largest
// accepted payload, then 100 bytes, from a reader that cannot report its
// length, fails ErrTruncated having allocated memory for the bytes that
// arrived (and one first window), not for the declared length.
func TestOpenLyingLengthBoundedAllocation(t *testing.T) {
	h := checkpointFrame(TagSpanning, AppendUint64s(nil, 8), nil)[:headerLen]
	binary.LittleEndian.PutUint64(h[16:], maxSanePayload)
	in := append(h, make([]byte, 100)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Open(iotest.OneByteReader(bytes.NewReader(in)))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("lying length: got %v, want ErrTruncated", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("lying length allocated %d bytes, want <= 1 MiB", got)
	}
}
