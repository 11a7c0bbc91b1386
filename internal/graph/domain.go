package graph

import (
	"fmt"
	"math/bits"
)

// Domain is the canonical bijection between hyperedges on n vertices with
// cardinality in [2, r] and 64-bit keys. The linear sketches treat a
// hypergraph as a vector indexed by this key space, so encoding must be
// deterministic, order-free, and cheap in both directions.
//
// Layout: each vertex occupies b = ⌈log2(n+1)⌉ bits storing v+1 (so 0 marks
// an empty slot), packed most-significant-first in ascending vertex order
// into r slots. This requires r·b ≤ 63, which comfortably covers every
// experiment in this repository (e.g. r = 4 with n up to 2^15, or graphs
// with n up to 2^31). The packing is isolated here so a wider key could be
// substituted without touching the sketches.
type Domain struct {
	n, r, b int
	size    uint64
}

// NewDomain returns the key domain for hypergraphs on n vertices with
// hyperedge cardinality at most r (r >= 2).
func NewDomain(n, r int) (Domain, error) {
	if n < 2 {
		return Domain{}, fmt.Errorf("graph: domain needs n >= 2, got %d", n)
	}
	if r < 2 {
		return Domain{}, fmt.Errorf("graph: domain needs r >= 2, got %d", r)
	}
	b := bits.Len(uint(n)) // bits to store v+1 for v in [0,n)
	if r*b > 63 {
		return Domain{}, fmt.Errorf("graph: r*⌈log2(n+1)⌉ = %d exceeds 63 bits (n=%d, r=%d)", r*b, n, r)
	}
	return Domain{n: n, r: r, b: b, size: uint64(1) << uint(r*b)}, nil
}

// MustDomain is NewDomain that panics on error, for tests and fixed-shape
// callers that have already validated n and r.
func MustDomain(n, r int) Domain {
	d, err := NewDomain(n, r)
	if err != nil {
		panic(err)
	}
	return d
}

// N returns the number of vertices.
func (d Domain) N() int { return d.n }

// R returns the maximum hyperedge cardinality.
func (d Domain) R() int { return d.r }

// Size returns the exclusive upper bound of the key space.
func (d Domain) Size() uint64 { return d.size }

// Encode maps a canonical hyperedge to its key. It returns an error if the
// edge does not fit the domain (too many vertices or vertex id >= n).
func (d Domain) Encode(e Hyperedge) (uint64, error) {
	if len(e) < 2 || len(e) > d.r {
		return 0, fmt.Errorf("graph: hyperedge %v has cardinality %d outside [2,%d]", e, len(e), d.r)
	}
	var key uint64
	prev := -1
	for _, v := range e {
		if v < 0 || v >= d.n {
			return 0, fmt.Errorf("graph: vertex %d outside [0,%d)", v, d.n)
		}
		if v <= prev {
			return 0, fmt.Errorf("graph: hyperedge %v not canonical (sorted, distinct)", e)
		}
		prev = v
		key = key<<uint(d.b) | uint64(v+1)
	}
	// Left-align remaining empty slots as zeros.
	key <<= uint(d.b * (d.r - len(e)))
	return key, nil
}

// MustEncode is Encode that panics on error; for edges already validated
// against the same domain.
func (d Domain) MustEncode(e Hyperedge) uint64 {
	k, err := d.Encode(e)
	if err != nil {
		panic(err)
	}
	return k
}

// Decode inverts Encode. It returns an error for keys that do not decode to
// a canonical hyperedge; the sketches rely on this to reject corrupt
// decodings instead of fabricating edges.
func (d Domain) Decode(key uint64) (Hyperedge, error) {
	return d.AppendDecode(make(Hyperedge, 0, d.r), key)
}

// AppendDecode is Decode appending the hyperedge's vertices to dst, so a
// loop over many keys can reuse one buffer (pass e[:0]). On error it
// returns nil.
func (d Domain) AppendDecode(dst Hyperedge, key uint64) (Hyperedge, error) {
	if key >= d.size {
		return nil, fmt.Errorf("graph: key %d outside domain of size %d", key, d.size)
	}
	mask := uint64(1)<<uint(d.b) - 1
	e, base := dst, len(dst)
	sawEmpty := false
	for slot := 0; slot < d.r; slot++ {
		raw := key >> uint(d.b*(d.r-1-slot)) & mask
		if raw == 0 {
			sawEmpty = true
			continue
		}
		if sawEmpty {
			return nil, fmt.Errorf("graph: key %d has a vertex after an empty slot", key)
		}
		v := int(raw) - 1
		if v >= d.n {
			return nil, fmt.Errorf("graph: key %d decodes vertex %d outside [0,%d)", key, v, d.n)
		}
		if len(e) > base && e[len(e)-1] >= v {
			return nil, fmt.Errorf("graph: key %d not sorted/distinct", key)
		}
		e = append(e, v)
	}
	if len(e)-base < 2 {
		return nil, fmt.Errorf("graph: key %d decodes to %d vertices", key, len(e)-base)
	}
	return e, nil
}
