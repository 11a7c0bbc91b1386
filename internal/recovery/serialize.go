package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"graphsketch/internal/field"
)

var (
	// ErrShortBuffer is returned when binary data is truncated.
	ErrShortBuffer = errors.New("recovery: short buffer")

	// ErrMalformed is returned when serialized cells are complete but not
	// in the one form the writers produce: a cell block whose bitmap lists
	// a cell past the block's cell count, or (internal/l0) a level count
	// out of range or a top level that lists no cell.
	ErrMalformed = errors.New("recovery: malformed cell block")
)

// CellBytes is the serialized size of one Cell: count, moment, fingerprint.
const CellBytes = 24

// Wire form. A run of cells travels as a block: a bitmap of ⌈cells/8⌉
// bytes, bit i%8 of byte i/8 set when cell i is nonzero, then only the
// nonzero cells in order, 24 little-endian bytes each (count, moment,
// fingerprint). A block's bytes thus depend only on the cells' values: two
// runs holding the same vector write the same block, however they got it.
// Most cells of an s-sparse level are zero, and each costs one bitmap bit.
//
// The other side of that saving is what a block can make a receiver
// allocate: a block for cells cells is at least ⌈cells/8⌉ bytes, its
// bitmap alone, and stands for 24·cells bytes of state, so a level costs
// at most 192 bytes of memory per wire byte (24·8, when cells is a
// multiple of 8; internal/l0's TestShareAllocationBound).

// bitmapLen is the length of a block's bitmap for cells cells.
func bitmapLen(cells int) int { return (cells + 7) / 8 }

// AppendCells appends the cells as a block, in one pass over them: each
// run of eight cells gives one bitmap byte, without a branch per cell, and
// then its nonzero cells are copied while they are in cache. The
// randomness (fingerprint point, hashes, domain) is public and
// reconstructed from the seed by the receiver. These bytes are the
// compact interior of the versioned wire format (internal/codec); the
// frame layer carries identity and checksums.
func AppendCells(b []byte, cells []Cell) []byte {
	m, nb := len(b), bitmapLen(len(cells))
	b = slices.Grow(b, nb)[:m+nb]
	for j := range nb {
		run := cells[8*j : min(8*j+8, len(cells))]
		var x byte
		for i, c := range run {
			x |= byte(c.nonzero()) << i
		}
		b[m+j] = x
		for ; x != 0; x &= x - 1 {
			c := &run[bits.TrailingZeros8(x)]
			b = binary.LittleEndian.AppendUint64(b, uint64(c.count))
			b = binary.LittleEndian.AppendUint64(b, uint64(c.mom))
			b = binary.LittleEndian.AppendUint64(b, uint64(c.fp))
		}
	}
	return b
}

// Nonzero returns how many of the cells are nonzero: the cells a block
// lists. It reads every cell, without a branch per cell.
func Nonzero(cells []Cell) int {
	n := 0
	for _, c := range cells {
		n += c.nonzero()
	}
	return n
}

// BlockSize returns the length of a block for cells cells that lists
// listed of them.
func BlockSize(cells, listed int) int { return bitmapLen(cells) + CellBytes*listed }

// CellsSize returns the length AppendCells appends for cells. It reads
// every cell.
func CellsSize(cells []Cell) int { return BlockSize(len(cells), Nonzero(cells)) }

// CheckCells validates a block for n cells at the front of b and returns
// how many cells it lists and the bytes after it. The block's length is
// its bitmap's popcount; a bit past the n-th is refused with ErrMalformed
// and a block cut short with ErrShortBuffer. It reads only the bitmap.
func CheckCells(b []byte, n int) (listed int, rest []byte, err error) {
	nb := bitmapLen(n)
	if len(b) < nb {
		return 0, nil, ErrShortBuffer
	}
	if n%8 != 0 && b[nb-1]>>(n%8) != 0 {
		return 0, nil, fmt.Errorf("recovery: bitmap lists a cell past the %d in the block: %w", n, ErrMalformed)
	}
	for _, x := range b[:nb] {
		listed += bits.OnesCount8(x)
	}
	if size := BlockSize(n, listed); len(b) >= size {
		return listed, b[size:], nil
	}
	return 0, nil, ErrShortBuffer
}

// AddCheckedCells scatter-adds the cells a block lists into cells and
// returns the bytes after it. The block must be one CheckCells accepted
// for len(cells) cells: it is not checked again. Field words are reduced
// as they are read: words this package writes are already in [0, p), and
// a crafted word outside it cannot leave a cell non-canonical (its bytes
// would then change on every re-serialization).
func AddCheckedCells(cells []Cell, b []byte) []byte {
	nb := bitmapLen(len(cells))
	bitmap, b := b[:nb], b[nb:]
	for j, x := range bitmap {
		for ; x != 0; x &= x - 1 {
			o := b[:CellBytes]
			cells[8*j+bits.TrailingZeros8(x)].add(int64(binary.LittleEndian.Uint64(o)),
				field.Reduce(binary.LittleEndian.Uint64(o[8:])),
				field.Reduce(binary.LittleEndian.Uint64(o[16:])))
			b = b[CellBytes:]
		}
	}
	return b
}

// AppendBinary serializes the structure's cells as one block, in their
// storage order: the certification cell followed by the grid cells in
// row-major order. Shape and hashes are public randomness.
func (t *SSparse) AppendBinary(b []byte) []byte { return AppendCells(b, t.cells) }

// CheckBinary validates a serialized structure at the front of b
// (CheckCells) and returns the remaining bytes.
func (t *SSparse) CheckBinary(b []byte) ([]byte, error) {
	_, rest, err := CheckCells(b, len(t.cells))
	return rest, err
}

// AddCheckedBinary merges (linearly) a serialized structure at the front
// of b, which CheckBinary accepted, and returns the remaining bytes. It
// does not check the bytes again. Check first, then add: that is how a
// malformed block is rejected before any cell changes.
func (t *SSparse) AddCheckedBinary(b []byte) ([]byte, error) {
	return AddCheckedCells(t.cells, b), nil
}

// BinarySize returns the serialized size in bytes. It reads every cell.
func (t *SSparse) BinarySize() int { return CellsSize(t.cells) }
