// Package good is the compliant fixture: both Checkpointer types are
// constructed inside codec.Register openers — one through a constructor
// helper, one as a composite literal.
package good

import (
	"io"

	"gsvettest/codec"
)

type Sk struct {
	n int
}

func (s *Sk) WriteTo(w io.Writer) (int64, error) { return 0, nil }

func (s *Sk) ReadFrom(r io.Reader) (int64, error) { return 0, nil }

func newSk(params []byte) (*Sk, error) { return &Sk{n: len(params)}, nil }

type Lit struct{}

func (l *Lit) WriteTo(w io.Writer) (int64, error) { return 0, nil }

func (l *Lit) ReadFrom(r io.Reader) (int64, error) { return 0, nil }

func init() {
	codec.Register(1, func(p, state []byte) (any, error) { return newSk(p) })
	codec.Register(2, func(p, state []byte) (any, error) { return &Lit{}, nil })
}
