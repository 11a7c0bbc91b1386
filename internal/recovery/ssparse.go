package recovery

import (
	"fmt"
	"slices"
	"sync"

	"graphsketch/internal/field"
	"graphsketch/internal/hashutil"
)

// SSparse recovers a dynamically updated vector exactly whenever it has at
// most S nonzero coordinates, and certifies success. It hashes each
// coordinate into Buckets buckets in each of Rows independent rows; each
// bucket is a 1-sparse cell. Decoding peels: any bucket holding exactly one
// surviving coordinate reveals it, the coordinate is subtracted everywhere,
// and the process repeats. A separate global fingerprint cell certifies that
// the peeled set equals the full vector.
//
// With Buckets >= 2*S and Rows >= 2 the decode succeeds with constant
// probability per row set; callers that need high-probability recovery
// repeat the structure (the L0 sampler and skeleton sketches do exactly
// that and detect failures via the certification).
//
// An SSparse is a (shape, cells) view. The cells are laid out exactly like
// the wire bytes: the certification cell at cells[0], then the grid's
// rows×buckets cells in row-major order, each cell's {count, mom, fp}
// words together. An update therefore touches one cache line per row plus
// the certification cell, and the cells hold no pointers, so the structure
// is invisible to the garbage collector's scan phase. The immutable
// randomness (bucket hashes, fingerprint point, shape) lives in a Shape
// that many structures share; containers that hold many levels (the L0
// sampler) keep the cells of all of them in one slice and update each
// level in place through Shape.ApplyDelta, viewing one as an SSparse only
// to decode, merge or serialize it.
type SSparse struct {
	shape *Shape
	cells []Cell // certification cell, then row*buckets+bucket at 1+row*buckets+bucket
}

// Shape is the seed-derived public randomness and geometry of an SSparse
// structure: everything except the cell contents. Shapes are immutable and
// freely shared — the L0 sampler's interning registry hands the same Shape
// to every same-seed sampler, so a spanning sketch's thousands of samplers
// per round stop duplicating hash coefficients.
type Shape struct {
	s       int
	rows    int
	buckets int
	mask    int // buckets-1 when buckets is a power of two, else -1
	dom     uint64
	seed    uint64
	z       field.Elem
	hash    []hashutil.Affine // one pairwise-independent row hash per row
}

// SSparseConfig controls the shape of an SSparse structure.
type SSparseConfig struct {
	// S is the sparsity the structure must recover. Must be >= 1.
	S int
	// Rows is the number of independent hash rows. Defaults to 3: with
	// two rows a pair of coordinates colliding in both rows (probability
	// ~ s²/buckets² per pair) is un-peelable; a third row makes that
	// event rare enough that the repetition at higher layers is cheap.
	Rows int
	// BucketsPerS scales the bucket count as BucketsPerS*S. Defaults to 2.
	BucketsPerS int
}

func (c SSparseConfig) withDefaults() SSparseConfig {
	if c.Rows <= 0 {
		c.Rows = 3
	}
	if c.BucketsPerS <= 0 {
		c.BucketsPerS = 2
	}
	return c
}

// NewShape derives the public randomness of an s-sparse structure for
// indices in [0, domain). Pass z = 0 to derive the fingerprint point from
// the seed; containers holding many structures pass one shared point so a
// single z^i — typically from a field.Ladder — serves every structure per
// update. Sharing the point is sound: the cells' contents are determined by
// independent bucket hashes, and each decode's fingerprint false-positive
// probability stays O(domain/p). A z = 0 shape is exactly the one NewSSparse builds, so structures
// built from it and structures built by NewSSparse with the same
// (seed, domain, cfg) are compatible.
func NewShape(seed uint64, domain uint64, cfg SSparseConfig, z field.Elem) *Shape {
	cfg = cfg.withDefaults()
	if cfg.S < 1 {
		panic("recovery: SSparseConfig.S must be >= 1")
	}
	buckets := cfg.S * cfg.BucketsPerS
	if buckets < 2 {
		buckets = 2
	}
	ss := newSeedStream(seed)
	if z == 0 {
		z = fingerprintPoint(ss.At(0))
	}
	mask := -1
	if buckets&(buckets-1) == 0 {
		mask = buckets - 1
	}
	sh := &Shape{
		s:       cfg.S,
		rows:    cfg.Rows,
		buckets: buckets,
		mask:    mask,
		dom:     domain,
		seed:    seed,
		z:       z,
		hash:    make([]hashutil.Affine, cfg.Rows),
	}
	for r := 0; r < cfg.Rows; r++ {
		sh.hash[r] = hashutil.NewAffine(ss.At(uint64(1 + r)))
	}
	return sh
}

// RandWords returns the number of 64-bit words of derived randomness the
// shape carries (hash coefficients plus the fingerprint point), for the
// amortized space accounting of containers that share shapes.
func (sh *Shape) RandWords() int { return 2*sh.rows + 1 }

// Cells returns the number of cells in one structure of this shape: the
// certification cell plus rows × buckets.
func (sh *Shape) Cells() int { return 1 + sh.rows*sh.buckets }

// View returns the structure whose state is cells, which must hold exactly
// Cells() cells laid out as documented on SSparse. The view aliases cells:
// updates and merges through it write the caller's slice.
func (sh *Shape) View(cells []Cell) SSparse {
	if len(cells) != sh.Cells() {
		panic(fmt.Sprintf("recovery: view of %d cells over a %d-cell shape", len(cells), sh.Cells()))
	}
	return SSparse{shape: sh, cells: cells}
}

// bucketRed maps a pre-reduced index to row r's bucket.
func (sh *Shape) bucketRed(r int, iRed field.Elem) int {
	h := uint64(sh.hash[r].HashRed(iRed))
	if sh.mask >= 0 {
		return int(h) & sh.mask
	}
	return int(h % uint64(sh.buckets))
}

// compatible reports whether two shapes describe interchangeable structures.
// Shared shapes make this a pointer comparison in the common case.
func (sh *Shape) compatible(o *Shape) bool {
	return sh == o || (sh.seed == o.seed && sh.dom == o.dom &&
		sh.rows == o.rows && sh.buckets == o.buckets && sh.z == o.z)
}

// NewSSparse returns an s-sparse recovery structure for indices in
// [0, domain). Instances with equal seeds, domains and configs are
// compatible for AddScaled.
func NewSSparse(seed uint64, domain uint64, cfg SSparseConfig) *SSparse {
	return NewSSparseFromShape(NewShape(seed, domain, cfg, 0))
}

// NewSSparseFromShape returns a zero structure over a (possibly shared)
// shape: one pointer-free cell slice and nothing else.
func NewSSparseFromShape(sh *Shape) *SSparse {
	return &SSparse{shape: sh, cells: make([]Cell, sh.Cells())}
}

// Update applies f[i] += delta. All cells share the fingerprint point, so a
// single exponentiation serves the certification cell and every row.
func (t *SSparse) Update(i uint64, delta int64) {
	sh := t.shape
	if i >= sh.dom {
		panic(fmt.Sprintf("recovery: index %d out of domain %d", i, sh.dom))
	}
	iRed := field.Reduce(i)
	dMom, dFp := DeltaTerms(iRed, field.Pow(sh.z, i), delta)
	sh.ApplyDelta(t.cells, iRed, delta, dMom, dFp)
}

// DeltaTerms precomputes the two field-element increments an update
// (i, delta) contributes to every cell it touches: delta·i and delta·z^i.
// Containers that fan one update out to many structures sharing a
// fingerprint point (the L0 sampler's levels) compute them once. Unit
// deltas — the overwhelming common case for edge streams — skip the generic
// scalar multiply entirely.
func DeltaTerms(iRed, zPow field.Elem, delta int64) (dMom, dFp field.Elem) {
	switch delta {
	case 1:
		return iRed, zPow
	case -1:
		return field.Neg(iRed), field.Neg(zPow)
	default:
		d := field.FromInt64(delta)
		return field.Mul(d, iRed), field.Mul(d, zPow)
	}
}

// ApplyDelta is the no-validation hot path beneath Update: it applies a
// precomputed (iRed, delta, dMom, dFp) tuple — see DeltaTerms — in place to
// the raw cells of one structure of this shape (laid out as documented on
// SSparse): the certification cell and one bucket per row. Callers are
// responsible for the domain check, for len(cells) == Cells(), and for
// iRed = Reduce(i), dMom/dFp matching delta.
func (sh *Shape) ApplyDelta(cells []Cell, iRed field.Elem, delta int64, dMom, dFp field.Elem) {
	cells[0].add(delta, dMom, dFp)
	base := 1
	if sh.mask >= 0 {
		mask := uint64(sh.mask)
		for _, h := range sh.hash {
			cells[base+int(uint64(h.HashRed(iRed))&mask)].add(delta, dMom, dFp)
			base += sh.buckets
		}
		return
	}
	m := uint64(sh.buckets)
	for _, h := range sh.hash {
		cells[base+int(uint64(h.HashRed(iRed))%m)].add(delta, dMom, dFp)
		base += sh.buckets
	}
}

// Z returns the fingerprint evaluation point.
func (t *SSparse) Z() field.Elem { return t.shape.z }

// Shape returns the structure's (shared, immutable) randomness and
// geometry.
func (t *SSparse) Shape() *Shape { return t.shape }

// AddScaled adds scale copies of o into t.
func (t *SSparse) AddScaled(o *SSparse, scale int64) error {
	if !t.shape.compatible(o.shape) {
		return ErrIncompatible
	}
	AddCells(t.cells, o.cells, scale)
	return nil
}

// Clone returns a deep copy (the immutable shape is shared).
func (t *SSparse) Clone() *SSparse {
	return &SSparse{shape: t.shape, cells: slices.Clone(t.cells)}
}

// IsZero reports whether the structure is consistent with the zero vector.
func (t *SSparse) IsZero() bool {
	return t.cells[0].IsZero()
}

// decodeScratch is the pooled working copy of the cells a decode peels.
// Pooling it makes DecodeAppend allocation-free after warm-up.
type decodeScratch struct{ cells []Cell }

var scratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// Coord is one recovered nonzero coordinate: f[Index] = Value.
type Coord struct {
	Index uint64
	Value int64
}

// Decode attempts to recover the full vector. On success it returns the map
// of nonzero coordinates and true; the result is certified by the global
// fingerprint, so a true return is correct up to fingerprint collision
// probability (~2^-40). On failure (vector not s-sparse, or unlucky
// hashing) it returns nil and false — it never silently returns a wrong or
// partial vector. It is DecodeAppend with the coordinates collected into a
// map.
func (t *SSparse) Decode() (map[uint64]int64, bool) {
	coords, ok := t.DecodeAppend(make([]Coord, 0, t.shape.s))
	if !ok {
		return nil, false
	}
	out := make(map[uint64]int64, len(coords))
	for _, c := range coords {
		out[c.Index] = c.Value
	}
	return out, true
}

// DecodeAppend is Decode appending the recovered nonzero coordinates to
// dst, in the order they were peeled, each index once. On failure it
// returns dst unchanged and false.
//
// It never mutates t: it peels a pooled scratch copy, so with a dst of
// enough capacity it allocates nothing after warm-up.
func (t *SSparse) DecodeAppend(dst []Coord) ([]Coord, bool) {
	sh := t.shape
	work := scratchPool.Get().(*decodeScratch)
	defer scratchPool.Put(work)
	work.cells = append(work.cells[:0], t.cells...)
	cells := work.cells
	start := len(dst)
	// Peeling: each successful peel zeroes one coordinate, and a vector
	// that decodes has at most rows*buckets live coordinates in the worst
	// imaginable case; cap iterations defensively.
	maxIter := sh.rows*sh.buckets + 4
	for iter := 0; iter < maxIter; iter++ {
		peeled := false
	scan:
		for r := 0; r < sh.rows; r++ {
			row := cells[1+r*sh.buckets : 1+(r+1)*sh.buckets]
			for b := range row {
				i, v, ok := row[b].decode(sh.z, sh.dom)
				if !ok {
					continue
				}
				// Guard against fingerprint false positives that
				// hash elsewhere: the index must belong here.
				iRed := field.Reduce(i)
				if sh.bucketRed(r, iRed) != b {
					continue
				}
				dst = addCoord(dst, start, i, v)
				dMom, dFp := DeltaTerms(iRed, field.Pow(sh.z, i), -v)
				sh.ApplyDelta(cells, iRed, -v, dMom, dFp)
				peeled = true
				break scan
			}
		}
		if !peeled {
			break
		}
	}
	for _, c := range cells {
		if !c.IsZero() {
			rm.failures.Inc()
			return dst[:start], false
		}
	}
	out := dst[:start]
	for _, c := range dst[start:] {
		if c.Value != 0 {
			out = append(out, c)
		}
	}
	rm.successes.Inc()
	return out, true
}

// addCoord adds v at index i to the coordinates dst[start:], appending i
// if it is not there yet.
func addCoord(dst []Coord, start int, i uint64, v int64) []Coord {
	for j := start; j < len(dst); j++ {
		if dst[j].Index == i {
			dst[j].Value += v
			return dst
		}
	}
	return append(dst, Coord{Index: i, Value: v})
}

// S returns the design sparsity.
func (t *SSparse) S() int { return t.shape.s }

// Domain returns the exclusive index upper bound.
func (t *SSparse) Domain() uint64 { return t.shape.dom }

// Words returns the memory footprint in 64-bit words.
func (t *SSparse) Words() int { return 3 * len(t.cells) }

// CellStats reports the grid geometry and occupancy: the total number of
// grid cells (rows × buckets) and how many currently hold a nonzero delta
// sum. Health introspection reads the ratio as a fill gauge.
func (t *SSparse) CellStats() (cells, nonzero int) {
	grid := t.cells[1:]
	for i := range grid {
		if grid[i].count != 0 {
			nonzero++
		}
	}
	return len(grid), nonzero
}

// MaybeDecodable reports a cheap necessary condition for Decode to
// succeed: some row holds at most S nonzero cells. A support larger than
// S fills more than S cells in every row whp, so failing this check means
// the level is over-dense; passing it is no guarantee (collisions can
// still defeat peeling). Health introspection treats the result as a risk
// signal, not a certificate — Decode's fingerprint certification remains
// the ground truth.
func (t *SSparse) MaybeDecodable() bool {
	sh := t.shape
	for r := 0; r < sh.rows; r++ {
		nz := 0
		for _, c := range t.cells[1+r*sh.buckets : 1+(r+1)*sh.buckets] {
			if c.count != 0 {
				nz++
			}
		}
		if nz <= sh.s {
			return true
		}
	}
	return false
}
