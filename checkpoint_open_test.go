// Opener hardening: every registered checkpoint opener reads its params
// through one reader, rejects params its frame cannot back before building
// anything, and fails only with the codec's typed decode sentinels.
package graphsketch_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"slices"
	"testing"

	"graphsketch/internal/codec"
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
// dimension of 2⁴⁰ is ErrUnknownType, for every registered tag.
func TestCheckpointOpenParamsSentinels(t *testing.T) {
	frames := openFrames(t, 20)
	var tags []codec.Tag
	for _, frame := range frames {
		tags = append(tags, codec.Tag(frame[7]))
	}
	if !slices.Equal(tags, codec.RegisteredTags()) {
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

// TestCheckpointOpenBoundsAllocation: a frame whose params declare a
// structure larger than its state can hold, or a sampler shape past the
// caps, fails typed before the opener builds it. Each tag's frame is an
// empty sketch's, its state exactly the empty state, with one dimension
// inflated; each open must allocate under 1 MiB, although building what
// the params declare would take megabytes.
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
	// The hybrid's params hold no dimension: its inner spanning frame,
	// embedded after an 8-byte length at the front of the state, declares
	// them and goes through its own opener.
	hybridInner := func() []byte {
		tag, params, state := splitCheckpoint(t, frames[7])
		flen := binary.LittleEndian.Uint64(state)
		itag, iparams, istate := splitCheckpoint(t, state[8:8+flen])
		inner := checkpointFrame(itag, setWord(iparams, 2, 1<<12), istate) // rounds
		return checkpointFrame(tag, params, append(append(state[:8:8], inner...), state[8+flen:]...))
	}
	cases := []struct {
		name  string
		frame []byte
	}{
		{"spanning/n", inflate(0, 0, 1<<16)},
		{"skeleton/k", inflate(1, 2, 1<<12)},
		{"edgeconn/max_levels", inflate(2, 7, 1<<12)},
		{"vertexconn/subgraphs", inflate(3, 3, 1<<10)},
		{"vertexconn/k-and-subgraphs", sparseSubgraphs()},
		{"estimator/kmax", estimator()},
		{"reconstruct/rows", inflate(5, 5, 1<<12)},
		{"sparsify/levels", inflate(6, 3, 1<<8)},
		{"hybrid/inner-rounds", hybridInner()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := codec.Open(bytes.NewReader(tc.frame))
			runtime.ReadMemStats(&after)
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("%d-byte frame: %v after %d bytes allocated", len(tc.frame), err, alloc)
			if !codec.IsDecodeError(err) {
				t.Errorf("got %v, want a typed decode error", err)
			}
			if alloc >= 1<<20 {
				t.Errorf("Open allocated %d bytes for a %d-byte frame, want < 1 MiB", alloc, len(tc.frame))
			}
		})
	}
}

// FuzzCheckpointOpen feeds checkpoint frames to codec.Open, seeded with
// one real frame per registered opener: an empty sketch's and, for the
// hybrid, one holding exact buffers (a sampler that has seen an update
// already takes kilobytes, which slows the fuzzer to a crawl). Each
// input's fingerprint and
// checksum are recomputed, so mutated params and states reach the opener
// instead of failing at the header. No input may panic, every rejection
// must be a typed decode error, and an opened sketch must write a frame.
func FuzzCheckpointOpen(f *testing.F) {
	for _, frame := range openFrames(f, 0) {
		f.Add(frame)
	}
	f.Add(openFrames(f, 4)[len(checkpointCases)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		frame := refingerprint(bytes.Clone(data))
		s, err := codec.Open(bytes.NewReader(frame))
		if err != nil {
			if !codec.IsDecodeError(err) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		frametest.Of(t, s)
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
