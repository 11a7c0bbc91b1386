// Package frametest compares sketch states in tests through their
// checkpoint frames. A frame is the sketch's only serialized form, and two
// identically constructed sketches hold the same state iff their WriteTo
// frames are byte-identical. It also rebuilds a frame in a retired state
// layout, to check that such a frame is refused.
package frametest

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"graphsketch/internal/codec"
)

// Of returns the checkpoint frame s writes. s must be an io.WriterTo.
func Of(tb testing.TB, s any) []byte {
	tb.Helper()
	w, ok := s.(io.WriterTo)
	if !ok {
		tb.Fatalf("frametest: %T writes no checkpoint frame", s)
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		tb.Fatalf("frametest: writing %T: %v", s, err)
	}
	return buf.Bytes()
}

// Equal reports whether a and b write byte-identical checkpoint frames.
func Equal(tb testing.TB, a, b any) bool {
	tb.Helper()
	return bytes.Equal(Of(tb, a), Of(tb, b))
}

// Params returns the params encoding checkpoint frame f carries.
func Params(tb testing.TB, f []byte) []byte {
	tb.Helper()
	_, payload, _, err := codec.DecodeFrame(f)
	if err != nil {
		tb.Fatalf("frametest: %v", err)
	}
	return payload[4 : 4+binary.LittleEndian.Uint32(payload)]
}

// Checkpoint returns a well-formed checkpoint frame for tag, params and
// state: its fingerprint commits to (tag, params) and its checksum covers
// it, so only its contents can make it refused.
func Checkpoint(tb testing.TB, tag codec.Tag, params, state []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := codec.WriteCheckpoint(&buf, tag, params, len(state), func(fw *codec.FrameWriter) error {
		_, err := fw.Write(state)
		return err
	}); err != nil {
		tb.Fatalf("frametest: %v", err)
	}
	return buf.Bytes()
}

// Stacked returns checkpoint frame f with its state replaced by members,
// each behind its big-endian uint64 length, and its checksum recomputed:
// the layout in which the vertexconn estimator and the sparsifier once
// wrote each scale's or level's state side by side.
func Stacked(tb testing.TB, f []byte, members ...[]byte) []byte {
	tb.Helper()
	h, payload, _, err := codec.DecodeFrame(f)
	if err != nil {
		tb.Fatalf("frametest: %v", err)
	}
	out := bytes.Clone(payload[:4+binary.LittleEndian.Uint32(payload)])
	for _, m := range members {
		out = append(binary.BigEndian.AppendUint64(out, uint64(len(m))), m...)
	}
	return codec.AppendFrame(nil, h, out)
}

// Refused requires checkpoint frame f, well-formed but holding a state its
// structure cannot parse, to fail codec.Open with a typed decode error and
// twin's ReadFrom without changing twin's frame.
func Refused(tb testing.TB, f []byte, twin interface {
	io.ReaderFrom
	io.WriterTo
}) {
	tb.Helper()
	_, err := codec.Open(bytes.NewReader(f))
	if !codec.IsDecodeError(err) {
		tb.Fatalf("codec.Open: got %v, want a typed decode error", err)
	}
	tb.Logf("codec.Open: %v", err)
	before := Of(tb, twin)
	if _, err := twin.ReadFrom(bytes.NewReader(f)); err == nil {
		tb.Fatal("ReadFrom accepted the frame")
	}
	if !bytes.Equal(Of(tb, twin), before) {
		tb.Fatal("a rejected ReadFrom changed the receiver")
	}
}
