// Package recovery implements exact sparse recovery for dynamically updated
// vectors: 1-sparse cells with fingerprint verification and certified
// s-sparse recovery built from buckets of such cells.
//
// These are the primitives beneath every sketch in the repository. A vector
// f ∈ Z^domain receives updates f[i] += delta (deltas may be negative — edge
// deletions). A 1-sparse cell can tell, at query time, whether the restricted
// vector it has seen is zero, has exactly one nonzero coordinate (and which),
// or has more; an s-sparse structure recovers the entire vector exactly
// whenever it has at most s nonzero coordinates, and *certifies* the
// recovery with a global fingerprint so failures are detected rather than
// silent.
//
// All structures are linear: two instances created with the same seed and
// domain can be added or subtracted coordinate-wise via AddScaled, and the
// result behaves exactly as if the combined update stream had been fed to a
// single instance. This linearity is what the paper's peeling constructions
// (k-skeletons, light_k reconstruction, sparsifier levels) rely on.
//
// State is stored as flat runs of 24-byte Cells in wire order, so a
// structure's state, its serialized bytes and a container's arena of many
// structures are the same sequence: an SSparse is a (Shape, cells) view of
// one run, and the L0 sampler keeps all its levels' runs in one slice and
// updates them in place with Shape.ApplyDelta.
package recovery

import (
	"errors"
	"fmt"

	"graphsketch/internal/field"
	"graphsketch/internal/hashutil"
)

// ErrIncompatible is returned when combining structures that were not
// created with identical seeds and shapes.
var ErrIncompatible = errors.New("recovery: incompatible structures (different seed, domain, or shape)")

// Cell is the state of one 1-sparse cell, 24 bytes in the order they
// travel on the wire: the exact sum of deltas, the first index moment mod p,
// and a polynomial fingerprint at the owner's evaluation point. The moment
// is kept mod p (not exactly) so that arbitrarily long update streams cannot
// overflow it; the index is recovered by division in the field and then
// verified against the fingerprint. A Cell holds no pointers, so a slice of
// them — an SSparse level, or an L0 sampler's whole level arena — is one
// flat block the garbage collector never scans.
type Cell struct {
	count int64      // exact sum of deltas, assumed |count| < 2^61 (multigraph multiplicities are small)
	mom   field.Elem // sum of delta * i mod p
	fp    field.Elem // sum of delta * z^i mod p
}

// add applies one precomputed update (see DeltaTerms) to the cell.
func (c *Cell) add(delta int64, dMom, dFp field.Elem) {
	c.count += delta
	c.mom = field.Add(c.mom, dMom)
	c.fp = field.Add(c.fp, dFp)
}

// IsZero reports whether the cell is consistent with the zero vector. A
// nonzero vector passes this test only with probability O(degree/p) over the
// fingerprint point — about 2^-40 for the domains used here.
func (c Cell) IsZero() bool {
	return c.count == 0 && c.mom == 0 && c.fp == 0
}

// nonzero is 1 when the cell is not IsZero and 0 when it is, computed
// without a branch.
func (c Cell) nonzero() int {
	x := uint64(c.count) | uint64(c.mom) | uint64(c.fp)
	return int((x | -x) >> 63)
}

// decode attempts 1-sparse recovery of the cell's vector with fingerprint
// point z over indices [0, dom): (i, v, true) when exactly one coordinate i
// is nonzero with value v, ok = false when the vector is zero or not
// 1-sparse (up to a false positive of probability O(dom/p)).
func (c Cell) decode(z field.Elem, dom uint64) (i uint64, v int64, ok bool) {
	if c.count == 0 {
		// A truly 1-sparse vector has count equal to its nonzero value,
		// so count == 0 means "zero or not 1-sparse" either way.
		return 0, 0, false
	}
	f := field.FromInt64(c.count)
	if f == 0 {
		return 0, 0, false
	}
	idx := field.Mul(c.mom, field.Inv(f))
	if uint64(idx) >= dom {
		rm.fpRejects.Inc()
		return 0, 0, false
	}
	// Verify: a 1-sparse vector with value count at idx has fingerprint
	// count * z^idx.
	if field.Mul(f, field.Pow(z, uint64(idx))) != c.fp {
		rm.fpRejects.Inc()
		return 0, 0, false
	}
	return uint64(idx), c.count, true
}

// AddCells adds scale copies of src into dst[:len(src)], cell by cell. It
// is the linear merge of two same-shape cell blocks: an SSparse level, or a
// run of levels laid out back to back.
func AddCells(dst, src []Cell, scale int64) {
	dst = dst[:len(src)]
	if scale == 1 {
		// The common merge path (supernode sampler sums, skeleton layer
		// merges) stays multiplication-free.
		for i := range src {
			dst[i].add(src[i].count, src[i].mom, src[i].fp)
		}
		return
	}
	s := field.FromInt64(scale)
	for i := range src {
		c := &src[i]
		dst[i].add(scale*c.count, field.Mul(s, c.mom), field.Mul(s, c.fp))
	}
}

// OneSparse is an exact 1-sparse recovery cell over the index domain
// [0, Domain): a Cell together with its fingerprint point and domain.
type OneSparse struct {
	Cell
	z   field.Elem // fingerprint evaluation point, derived from the seed
	dom uint64     // exclusive upper bound on valid indices
}

// NewOneSparse returns a cell for indices in [0, domain). Cells created with
// equal seeds and domains are compatible for AddScaled.
func NewOneSparse(seed uint64, domain uint64) *OneSparse {
	return &OneSparse{z: fingerprintPoint(seed), dom: domain}
}

// FingerprintPoint derives the fingerprint evaluation point a structure
// with this seed uses. Containers that share one point across many
// sub-structures (the L0 sampler shares one across its levels, paired with
// a field.Ladder) derive it here so compatibility checks keep working.
func FingerprintPoint(seed uint64) field.Elem { return fingerprintPoint(seed) }

func fingerprintPoint(seed uint64) field.Elem {
	// Avoid the degenerate points 0 and 1, which would blind the
	// fingerprint to entire classes of vectors.
	z := field.Reduce(hashutil.Mix64(seed ^ 0x0f1e_2d3c_4b5a_6978))
	if z == 0 || z == 1 {
		z = 2
	}
	return z
}

// Update applies f[i] += delta.
func (c *OneSparse) Update(i uint64, delta int64) {
	if i >= c.dom {
		panic(fmt.Sprintf("recovery: index %d out of domain %d", i, c.dom))
	}
	dMom, dFp := DeltaTerms(field.Reduce(i), field.Pow(c.z, i), delta)
	c.add(delta, dMom, dFp)
}

// AddScaled adds scale copies of o into c: f_c += scale * f_o.
func (c *OneSparse) AddScaled(o *OneSparse, scale int64) error {
	if c.z != o.z || c.dom != o.dom {
		return ErrIncompatible
	}
	s := field.FromInt64(scale)
	c.add(scale*o.count, field.Mul(s, o.mom), field.Mul(s, o.fp))
	return nil
}

// Decode attempts 1-sparse recovery. If the cell's vector has exactly one
// nonzero coordinate i with value v, it returns (i, v, true) with high
// probability. If the vector is zero or not 1-sparse, ok is false (with
// failure probability O(domain/p) of a false positive).
func (c *OneSparse) Decode() (i uint64, v int64, ok bool) {
	return c.decode(c.z, c.dom)
}

// Domain returns the exclusive index upper bound.
func (c *OneSparse) Domain() uint64 { return c.dom }

// Words returns the memory footprint in 64-bit words, used by the space
// accounting in the experiments (the paper's results are all about space).
func (c *OneSparse) Words() int { return 3 } // count, mom, fp; z is shared randomness
