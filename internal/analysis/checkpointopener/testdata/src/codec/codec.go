// Package codec is a stand-in for graphsketch/internal/codec with the
// same opener-registry surface; the analyzer matches it by import-path
// suffix (and exempts it from the Checkpointer check).
package codec

type Tag uint16

type Opener func(params, state []byte) (any, error)

func Register(tag Tag, open Opener) {}
