// Package frametest compares sketch states in tests through their
// checkpoint frames. A frame is the sketch's only serialized form, and two
// identically constructed sketches hold the same state iff their WriteTo
// frames are byte-identical.
package frametest

import (
	"bytes"
	"io"
	"testing"
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
