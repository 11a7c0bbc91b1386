// Package wrapper is the positive golden for the shell-opener pattern a
// wrapping sketch uses (internal/hybrid): the registered opener cannot
// reconstruct the wrapped inner from params alone, so it builds a shell
// composite literal and completes it from the state's embedded inner frame.
// The &Sketch{...} literal inside the Register call's argument tree is what
// marks the type as registered — no diagnostic expected.
package wrapper

import (
	"io"

	"gsvettest/codec"
)

// Sketch wraps an inner sketch behind an exact-buffer layer.
type Sketch struct {
	budget int
	inner  io.WriterTo
}

func (s *Sketch) WriteTo(w io.Writer) (int64, error)  { return 0, nil }
func (s *Sketch) ReadFrom(r io.Reader) (int64, error) { return 0, nil }

func init() {
	codec.Register(codec.Tag(9), func(params, state []byte) (any, error) {
		// Shell: no inner yet; the state's embedded frame supplies it.
		return &Sketch{budget: len(params)}, nil
	})
}
