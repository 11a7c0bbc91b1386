// Opener hardening: every registered checkpoint opener reads its params
// through one reader, rejects params its frame cannot back before building
// anything, and fails only with the codec's typed decode sentinels.
package graphsketch_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"

	"graphsketch"
	"graphsketch/internal/codec"
	"graphsketch/internal/core/vertexconn"
	"graphsketch/internal/plan"
	"graphsketch/internal/stream"
	"graphsketch/internal/testutil/frametest"
)

// openFrames returns one real checkpoint frame per checkpointCases entry,
// in table order, each written at n = 8 after the first updates of the
// shared stream.
func openFrames(tb testing.TB, updates int) [][]byte {
	const n = 8
	st := checkpointStream(n)
	frames := make([][]byte, len(checkpointCases))
	for i, tc := range checkpointCases {
		s := tc.build(tb, n, plan.Balanced)
		if err := stream.Apply(st[:min(updates, len(st))], s); err != nil {
			tb.Fatal(err)
		}
		frames[i] = frametest.Of(tb, s)
	}
	return frames
}

// splitCheckpoint returns a well-formed checkpoint frame's tag, params and
// state, copied out of the frame.
func splitCheckpoint(tb testing.TB, frame []byte) (codec.Tag, []byte, []byte) {
	tb.Helper()
	h, payload, _, err := codec.DecodeFrame(frame)
	if err != nil {
		tb.Fatal(err)
	}
	plen := binary.LittleEndian.Uint32(payload)
	return h.Tag, bytes.Clone(payload[4 : 4+plen]), bytes.Clone(payload[4+plen:])
}

// checkpointFrame frames params and state as a checkpoint of tag, with the
// fingerprint and checksum they call for, so the frame reaches the opener.
func checkpointFrame(tag codec.Tag, params, state []byte) []byte {
	payload := binary.LittleEndian.AppendUint32(nil, uint32(len(params)))
	payload = append(append(payload, params...), state...)
	return codec.AppendFrame(nil, codec.Header{Kind: codec.KindCheckpoint, Tag: tag,
		Fingerprint: codec.Fingerprint(tag, params)}, payload)
}

// setWord returns a copy of params with word i set to v.
func setWord(params []byte, i int, v uint64) []byte {
	out := bytes.Clone(params)
	binary.LittleEndian.PutUint64(out[8*i:], v)
	return out
}

// TestCheckpointOpenParamsSentinels pins the sentinel each opener returns
// for broken params: a word short is ErrTruncated, a word extra or a
// dimension of 2⁴⁰ is ErrUnknownType, for every registered tag (the
// edgeconn and reconstruct cases are skeleton frames).
func TestCheckpointOpenParamsSentinels(t *testing.T) {
	frames := openFrames(t, 20)
	var tags []codec.Tag
	for _, frame := range frames {
		tags = append(tags, codec.Tag(frame[7]))
	}
	slices.Sort(tags)
	if tags = slices.Compact(tags); !slices.Equal(tags, codec.RegisteredTags()) {
		t.Fatalf("frames for tags %v, registered openers %v", tags, codec.RegisteredTags())
	}
	for i, frame := range frames {
		tag, params, state := splitCheckpoint(t, frame)
		t.Run(checkpointCases[i].name, func(t *testing.T) {
			for _, v := range []struct {
				name   string
				params []byte
				want   error
			}{
				{"short", params[:len(params)-8], codec.ErrTruncated},
				{"extra", append(bytes.Clone(params), make([]byte, 8)...), codec.ErrUnknownType},
				{"huge", setWord(params, 0, 1<<40), codec.ErrUnknownType},
			} {
				if _, err := codec.Open(bytes.NewReader(checkpointFrame(tag, v.params, state))); !errors.Is(err, v.want) {
					t.Errorf("%s params: got %v, want %v", v.name, err, v.want)
				}
			}
		})
	}
}

// streamed returns a reader of frame that hides its length and returns
// short reads, as a file or a socket might: codec.Open streams it through
// its refilled window, with no length to check the header against.
func streamed(frame []byte) io.Reader {
	return struct{ io.Reader }{iotest.HalfReader(bytes.NewReader(frame))}
}

// openReaders are the two ways a frame reaches codec.Open's stream: from a
// bytes.Reader, which reports its length, and through streamed.
var openReaders = []struct {
	name string
	of   func(frame []byte) io.Reader
}{
	{"sized", func(frame []byte) io.Reader { return bytes.NewReader(frame) }},
	{"streamed", streamed},
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCheckpointOpenBoundsAllocation: a frame whose params declare a
// structure larger than its state can hold, or a sampler shape past the
// caps, fails typed before the opener builds it. Each tag's frame is an
// empty sketch's, its state exactly the empty state, with one dimension
// inflated; each open must allocate under 1 MiB, although building what
// the params declare would take megabytes. So must a real vconn-n64 frame
// cut right after its params but declaring its full state, which fails
// ErrTruncated: from a reader without a length, Fit holds the build to
// the bytes that arrive. Every case runs from both openReaders.
func TestCheckpointOpenBoundsAllocation(t *testing.T) {
	frames := openFrames(t, 0)
	inflate := func(i, word int, v uint64) []byte {
		tag, params, state := splitCheckpoint(t, frames[i])
		return checkpointFrame(tag, setWord(params, word, v), state)
	}
	// With K far above n a vertexconn subgraph has almost no members, so
	// the state stays short while every subgraph still holds n samplers a
	// round: the bound on what building takes must catch it.
	sparseSubgraphs := func() []byte {
		tag, params, state := splitCheckpoint(t, frames[3])
		return checkpointFrame(tag, setWord(setWord(params, 2, 1<<30), 3, 1<<14), state)
	}
	// The estimator's kmax sets how many per-scale subgraph counts follow;
	// the inflated frame lists them all, 24·k at scale k as built.
	estimator := func() []byte {
		tag, params, state := splitCheckpoint(t, frames[4])
		const kmax, scales = 16, 5
		params = binary.LittleEndian.AppendUint64(setWord(params, 2, kmax)[:8*4], scales)
		for k := uint64(1); k <= kmax; k *= 2 {
			params = binary.LittleEndian.AppendUint64(params, 24*k)
		}
		return checkpointFrame(tag, params, state)
	}
	// cut keeps a frame's header, params length and params, which still
	// declare the whole state.
	cut := func(frame []byte) []byte {
		return frame[:24+4+binary.LittleEndian.Uint32(frame[24:])]
	}
	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"spanning/n", inflate(0, 0, 1<<16), nil},
		{"skeleton/k", inflate(1, 2, 1<<12), nil},
		{"edgeconn/max_levels", inflate(2, 7, 1<<12), nil}, // a skeleton frame
		{"vertexconn/subgraphs", inflate(3, 3, 1<<10), nil},
		{"vertexconn/k-and-subgraphs", sparseSubgraphs(), nil},
		{"estimator/kmax", estimator(), nil},
		{"reconstruct/rows", inflate(5, 5, 1<<12), nil}, // a skeleton frame
		{"sparsify/levels", inflate(6, 3, 1<<8), nil},
		{"hybrid/inner-rounds", inflate(7, 4, 1<<12), nil}, // budget, tag, n, r, rounds
		{"vconn-n64/cut-after-params", cut(frametest.Of(t, denseVertexConn(t))), codec.ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, rd := range openReaders {
				t.Run(rd.name, func(t *testing.T) {
					var err error
					alloc := allocated(func() { _, err = codec.Open(rd.of(tc.frame)) })
					t.Logf("%d-byte frame: %v after %d bytes allocated", len(tc.frame), err, alloc)
					if !codec.IsDecodeError(err) || tc.want != nil && !errors.Is(err, tc.want) {
						t.Errorf("got %v, want a typed decode error (%v)", err, tc.want)
					}
					if alloc >= 1<<20 {
						t.Errorf("Open allocated %d bytes for a %d-byte frame, want < 1 MiB", alloc, len(tc.frame))
					}
				})
			}
		})
	}
}

// TestCheckpointOpenAllocation pins the streamed restore: opening the
// vconn-n64 frame allocates at most 1.25× the state of the sketch it
// builds (its cell arenas, 8 bytes a state word), from a bytes.Reader
// and from a reader without a length alike, where reading the whole frame
// first took 2.1×. The frame lists only nonzero cells, so it is several
// times shorter than that state and is no measure of the build. The
// restored sketch checkpoints back to the same frame.
func TestCheckpointOpenAllocation(t *testing.T) {
	frame := frametest.Of(t, denseVertexConn(t))
	want := sha256.Sum256(frame)
	for _, rd := range openReaders {
		t.Run(rd.name, func(t *testing.T) {
			var s graphsketch.Sketch
			var err error
			runtime.GC()
			alloc := allocated(func() { s, err = codec.Open(rd.of(frame)) })
			if err != nil {
				t.Fatal(err)
			}
			vc := s.(*vertexconn.Sketch)
			state := 8 * (vc.Words() - vc.SharedWords())
			ratio := float64(alloc) / float64(state)
			t.Logf("Open allocated %.3f× the %d-byte state of its %d-byte frame", ratio, state, len(frame))
			if ratio > 1.25 {
				t.Errorf("Open allocated %.2f× the %d-byte state it built, want <= 1.25×", ratio, state)
			}
			h := sha256.New()
			if _, err := s.(io.WriterTo).WriteTo(h); err != nil {
				t.Fatal(err)
			}
			if got := h.Sum(nil); !bytes.Equal(got, want[:]) {
				t.Error("the restored sketch checkpoints to a different frame")
			}
		})
	}
}

// TestCheckpointOpenStreamRejects: from either reader, a frame whose last
// CRC byte is flipped fails ErrChecksum, one that ends a byte early fails
// ErrTruncated, and one whose state a byte flipped turned malformed fails
// typed, for every registered opener.
func TestCheckpointOpenStreamRejects(t *testing.T) {
	for i, frame := range openFrames(t, 20) {
		flipped := bytes.Clone(frame)
		flipped[len(flipped)-1] ^= 1
		for _, rd := range openReaders {
			t.Run(checkpointCases[i].name+"/"+rd.name, func(t *testing.T) {
				if _, err := codec.Open(rd.of(flipped)); !errors.Is(err, codec.ErrChecksum) {
					t.Errorf("flipped CRC: got %v, want ErrChecksum", err)
				}
				if _, err := codec.Open(rd.of(frame[:len(frame)-1])); !errors.Is(err, codec.ErrTruncated) {
					t.Errorf("short frame: got %v, want ErrTruncated", err)
				}
				for _, at := range []int{len(frame) / 2, len(frame) - 5} {
					bad := bytes.Clone(frame)
					bad[at] ^= 0x80
					if _, err := codec.Open(rd.of(bad)); !codec.IsDecodeError(err) {
						t.Errorf("byte %d flipped: got %v, want a typed decode error", at, err)
					}
				}
			})
		}
	}
}

// TestCheckpointOpenReadsOneFrame: Open reads exactly its frame and
// nothing past it, so from a reader holding two checkpoint frames back to
// back the second still opens, and each restores its own sketch.
func TestCheckpointOpenReadsOneFrame(t *testing.T) {
	frames := openFrames(t, 20)
	first, second := frames[0], frames[len(frames)-1]
	for _, rd := range openReaders {
		t.Run(rd.name, func(t *testing.T) {
			r := rd.of(append(bytes.Clone(first), second...))
			for _, want := range [][]byte{first, second} {
				s, err := codec.Open(r)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(frametest.Of(t, s), want) {
					t.Fatal("a frame restored a different sketch")
				}
			}
			if n, err := r.Read(make([]byte, 1)); n != 0 || err != io.EOF {
				t.Fatalf("after both frames: read %d bytes, %v; want EOF", n, err)
			}
		})
	}
}

// TestCheckpointOpenOldHybridLayout: a hybrid frame in the layout that
// embedded the inner's checkpoint frame (params: the budget and the
// inner's fingerprint; state: the inner frame behind its 8-byte length,
// the spill bitmap, then each vertex's buffer) fails typed at its params.
func TestCheckpointOpenOldHybridLayout(t *testing.T) {
	const n = 8
	inner := openFrames(t, 0)[0] // the hybrid case's inner: spanning, seed 7
	state := binary.LittleEndian.AppendUint64(nil, uint64(len(inner)))
	state = binary.LittleEndian.AppendUint64(append(state, inner...), 0) // nothing spilled
	for v := 0; v < n; v++ {
		state = binary.LittleEndian.AppendUint32(state, 0) // empty buffer
	}
	innerFP := binary.LittleEndian.Uint64(inner[8:])
	frame := checkpointFrame(codec.TagHybrid, codec.AppendUint64s(nil, 8, innerFP), state)
	_, err := codec.Open(bytes.NewReader(frame))
	t.Logf("old-layout hybrid frame: %v", err)
	if !codec.IsDecodeError(err) {
		t.Fatalf("got %v, want a typed decode error", err)
	}
}

// FuzzCheckpointOpen feeds checkpoint frames to codec.Open, seeded with
// two real frames per registered opener: an empty sketch's and one after
// four updates, so the corpus starts from non-empty vertex-major states
// in the sparse cell form (and the hybrid's exact buffers), plus each
// four-update frame marked format version 1. Each input's fingerprint
// and checksum are recomputed, so mutated params and states reach the
// opener instead of failing at the header. No input may panic, every
// rejection must be a typed decode error, and an opened sketch must write
// a frame.
func FuzzCheckpointOpen(f *testing.F) {
	for _, frame := range append(openFrames(f, 0), openFrames(f, 4)...) {
		f.Add(frame)
	}
	for _, frame := range openFrames(f, 4) {
		f.Add(asVersion1(frame))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frame := refingerprint(bytes.Clone(data))
		s, err := codec.Open(bytes.NewReader(frame))
		if err != nil && !codec.IsDecodeError(err) {
			t.Fatalf("untyped error: %v", err)
		}
		// The refill path, short reads from a reader without a length,
		// must come to the same outcome.
		ss, serr := codec.Open(streamed(frame))
		if serr != nil && !codec.IsDecodeError(serr) {
			t.Fatalf("streamed: untyped error: %v", serr)
		}
		switch {
		case (err == nil) != (serr == nil):
			t.Fatalf("bytes.Reader: %v; streamed: %v", err, serr)
		case err == nil && !bytes.Equal(frametest.Of(t, s), frametest.Of(t, ss)):
			t.Fatal("the two reads restored different sketches")
		}
	})
}

// refingerprint makes a checkpoint frame's declared payload length,
// fingerprint and checksum agree with its bytes, where it can find them.
func refingerprint(f []byte) []byte {
	if len(f) < codec.FrameOverhead+4 {
		return f
	}
	binary.LittleEndian.PutUint64(f[16:], uint64(len(f)-codec.FrameOverhead))
	payload := f[24 : len(f)-4]
	if plen := binary.LittleEndian.Uint32(payload); uint64(plen) <= uint64(len(payload)-4) {
		binary.LittleEndian.PutUint64(f[8:], codec.Fingerprint(codec.Tag(f[7]), payload[4:4+plen]))
	}
	return fixCRC(f)
}
