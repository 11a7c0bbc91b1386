package recovery

import (
	"encoding/binary"
	"errors"
	"slices"

	"graphsketch/internal/field"
)

// ErrShortBuffer is returned when binary data is truncated.
var ErrShortBuffer = errors.New("recovery: short buffer")

// CellBytes is the serialized size of one Cell: count, moment, fingerprint.
const CellBytes = 24

// AppendCells appends the cells' state, 24 little-endian bytes each
// (count, moment, fingerprint), in one pass over the slice. The randomness
// (fingerprint point, hashes, domain) is public and reconstructed from the
// seed by the receiver. These bytes are the compact interior of the
// versioned wire format (internal/codec); the frame layer carries identity
// and checksums.
func AppendCells(b []byte, cells []Cell) []byte {
	n := len(b)
	b = slices.Grow(b, CellBytes*len(cells))[:n+CellBytes*len(cells)]
	out := b[n:]
	for i := range cells {
		c, o := &cells[i], out[CellBytes*i:CellBytes*(i+1)]
		binary.LittleEndian.PutUint64(o, uint64(c.count))
		binary.LittleEndian.PutUint64(o[8:], uint64(c.mom))
		binary.LittleEndian.PutUint64(o[16:], uint64(c.fp))
	}
	return b
}

// AddCellsBinary adds serialized cells (AppendCells bytes) into cells
// (linear merge) and returns the remaining bytes. It checks the length
// before touching any cell, so a truncated buffer leaves cells unchanged.
// Field words are reduced as they are read: words this package writes are
// already in [0, p), and a crafted word outside it cannot leave a cell
// non-canonical (its bytes would then change on every re-serialization).
// The serialized cells must come from same-shape cells with the same seed
// and domain; that invariant is the caller's (the protocol's public
// randomness).
func AddCellsBinary(cells []Cell, b []byte) ([]byte, error) {
	if len(b) < CellBytes*len(cells) {
		return nil, ErrShortBuffer
	}
	for i := range cells {
		o := b[CellBytes*i : CellBytes*(i+1)]
		cells[i].add(int64(binary.LittleEndian.Uint64(o)),
			field.Reduce(binary.LittleEndian.Uint64(o[8:])),
			field.Reduce(binary.LittleEndian.Uint64(o[16:])))
	}
	return b[CellBytes*len(cells):], nil
}

// AppendBinary serializes the cell's state (24 bytes: count, moment,
// fingerprint).
func (c *OneSparse) AppendBinary(b []byte) []byte {
	return AppendCells(b, []Cell{c.Cell})
}

// AddBinary adds a serialized cell state into c (linear merge) and returns
// the remaining bytes.
func (c *OneSparse) AddBinary(b []byte) ([]byte, error) {
	var in [1]Cell
	rest, err := AddCellsBinary(in[:], b)
	if err == nil {
		c.add(in[0].count, in[0].mom, in[0].fp)
	}
	return rest, err
}

// AppendBinary serializes the structure's cells ((1 + rows·buckets) × 24
// bytes) in their storage order: the certification cell followed by the
// grid cells in row-major order. Shape and hashes are public randomness.
func (t *SSparse) AppendBinary(b []byte) []byte { return AppendCells(b, t.cells) }

// AddBinary adds a serialized structure into t (linear merge) and returns
// the remaining bytes. A truncated buffer is rejected before any cell
// changes.
func (t *SSparse) AddBinary(b []byte) ([]byte, error) { return AddCellsBinary(t.cells, b) }

// CheckBinary validates a serialized structure at the front of b — its
// length, the one check AddBinary makes — and returns the remaining bytes.
func (t *SSparse) CheckBinary(b []byte) ([]byte, error) {
	if len(b) < t.BinarySize() {
		return nil, ErrShortBuffer
	}
	return b[t.BinarySize():], nil
}

// BinarySize returns the serialized size in bytes.
func (t *SSparse) BinarySize() int { return CellBytes * len(t.cells) }
