// Package l0 implements L0 samplers in the style of Jowhari, Saglam and
// Tardos: linear sketches of a dynamically updated vector f ∈ Z^domain from
// which, at query time, one can extract a (near-)uniformly random element of
// the support of f — or detect that the support is empty.
//
// The construction layers geometric subsampling over certified s-sparse
// recovery: coordinate i participates in levels 0..Level(i) where
// P[Level(i) ≥ l] = 2^-l, and each level holds an s-sparse recovery
// structure; a sampler stores the cells of all its levels back to back in
// one arena (see Sampler). Whatever the support size, some level whp holds between 1 and
// s surviving coordinates and decodes exactly; the sampler returns the
// minimum-hash element of that level for uniformity.
//
// Samplers are linear: instances with identical seeds, domains, and configs
// can be added and subtracted, which the graph sketches use to sum vertex
// incidence vectors across supernodes (Boruvka rounds) and to peel known
// subgraphs out of skeleton sketches.
//
// All seed-derived public randomness — level hash, fingerprint ladder,
// per-level bucket-hash coefficients — is interned in a package registry
// keyed by (seed, domain, config), so the thousands of same-seed samplers a
// spanning or skeleton sketch holds share one copy instead of each
// re-deriving and storing it.
package l0

import (
	"cmp"
	"log/slog"
	"math/bits"
	"slices"
	"sync"

	"graphsketch/internal/field"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/obs"
	"graphsketch/internal/recovery"
)

// Config controls the shape (and hence space and failure probability) of a
// sampler.
type Config struct {
	// S is the per-level recovery sparsity. Larger S lowers the
	// probability that the support-size transition between adjacent
	// levels skips past the decodable window. Default 8.
	S int
	// Rows and BucketsPerS are passed to the per-level s-sparse recovery.
	Rows        int
	BucketsPerS int
	// MaxLevels caps the number of subsampling levels. The default is
	// enough levels to thin any support within the domain to O(1):
	// ⌈log2(domain)⌉ + 1.
	MaxLevels int
}

// Caps on the shape a checkpoint frame may declare, far above any the
// package defaults, plan profiles or tests use: shared randomness is built
// eagerly, MaxLevels shapes of Rows hashes, however short the state.
// LevelsCap bounds that build, four times the 64 levels a 2⁶³ domain
// needs (a share's uvarint level count holds any L); RowsCap and
// BucketsCap (S·BucketsPerS) keep a level's cell count within an int32.
const (
	LevelsCap  = 256
	RowsCap    = 64
	BucketsCap = 1 << 16
)

// WithinCaps reports whether c, zero fields defaulted, is within the caps.
func (c Config) WithinCaps() bool {
	return c.MaxLevels <= LevelsCap && c.Rows <= RowsCap && cmp.Or(c.S, 8)*cmp.Or(c.BucketsPerS, 2) <= BucketsCap
}

// SharedBytes is about the heap one entry of shared randomness takes (a
// header, a ladder, a shape per level), zero fields defaulted and
// MaxLevels over the widest domain. Every row of samplers holds one.
func (c Config) SharedBytes() int {
	return 1024 + cmp.Or(c.MaxLevels, 65)*(96+16*cmp.Or(c.Rows, 3))
}

func (c Config) withDefaults(domain uint64) Config {
	if c.S <= 0 {
		c.S = 8
	}
	if c.MaxLevels <= 0 {
		c.MaxLevels = bits.Len64(domain-1) + 1
	}
	return c
}

// Sampler is a linear L0-sampling sketch over [0, domain).
//
// Its state is one pointer-free cell arena: levels 0..L back to back, each
// laid out exactly like its wire bytes (the certification cell, then the
// rows × buckets grid; see recovery.SSparse). An update therefore does one
// dependent load — the arena base — and touches one cache line per row of
// each level it reaches.
//
// Allocation is lazy. An absent sampler, one no update or merge has
// reached, has a nil arena and no heap object of its own (NewRow lays a
// round's samplers out by value); queries, serialization, Clone and
// merging in an absent source all leave it absent. After that the
// allocated levels are always a prefix 0..L: the first update that reaches
// a level above L grows the arena once, to the exact size for levels up to
// that one. A coordinate reaches level l with probability 2^-l, so a
// sampler that has seen d updates allocates about log2(d) levels — this is
// what keeps a full graph sketch (one sampler per vertex per round)
// proportional to the sketch's *information* content rather than to n or
// the worst-case level count. An absent sampler or unallocated level is
// exactly a zero structure; linearity is unaffected.
//
// Every derived constant (hashes, ladder, per-level shapes, pre-defaulted
// config) lives in the interned sharedRand, sized once from the domain at
// interning time.
type Sampler struct {
	sh    *sharedRand
	cells []recovery.Cell // levels 0..L, sh.stride cells each; nil while absent
}

// New returns an absent sampler for indices in [0, domain). Samplers with
// equal seeds, domains and configs are compatible for AddScaled.
func New(seed uint64, domain uint64, cfg Config) *Sampler {
	return &Sampler{sh: internShared(seed, domain, cfg.withDefaults(domain))}
}

// NewRow returns n absent, mutually compatible samplers stored by value:
// one allocation for the row, and one registry lookup for its randomness.
func NewRow(seed uint64, domain uint64, cfg Config, n int) []Sampler {
	sh := internShared(seed, domain, cfg.withDefaults(domain))
	row := make([]Sampler, n)
	for i := range row {
		row[i].sh = sh
	}
	return row
}

// levels returns the number of allocated levels. An absent sampler, the
// common case in a sparse sketch's checkpoint, skips the division.
func (s *Sampler) levels() int {
	if len(s.cells) == 0 {
		return 0
	}
	return len(s.cells) / s.sh.stride
}

// cellsOf returns level lv's cells, which must be allocated.
func (s *Sampler) cellsOf(lv int) []recovery.Cell {
	st := s.sh.stride
	return s.cells[lv*st : (lv+1)*st]
}

// level returns a recovery view of allocated level lv.
func (s *Sampler) level(lv int) recovery.SSparse {
	return s.sh.shapes[lv].View(s.cellsOf(lv))
}

// grow extends the arena to hold levels 0..n-1, moving the allocated prefix
// into one exact-size allocation. It is a no-op when they already exist.
func (s *Sampler) grow(n int) {
	if need := n * s.sh.stride; len(s.cells) < need {
		cells := make([]recovery.Cell, need)
		copy(cells, s.cells)
		s.cells = cells
	}
}

// Update applies f[i] += delta. One ladder evaluation of z^i serves every
// touched level (they share the fingerprint point).
func (s *Sampler) Update(i uint64, delta int64) {
	top, zPow := s.Hash(i)
	s.UpdateHashed(i, delta, top, zPow)
}

// Hash returns the subsampling level and fingerprint power of index i —
// the two hash evaluations Update performs before touching any state. Both
// depend only on the sampler's seed, so a caller updating many same-seed
// samplers with the same index (e.g. one spanning-sketch round across an
// edge's endpoints) can evaluate them once and fan the result out with
// UpdateHashed.
func (s *Sampler) Hash(i uint64) (top int, zPow field.Elem) {
	return s.sh.lh.Level(i), s.sh.ladder.Pow(i)
}

// UpdateHashed applies f[i] += delta given a precomputed (top, zPow) pair
// obtained from Hash on a sampler with the same seed and config. The
// reduction of i and the per-cell field increments are computed once and
// fanned out to every touched level; after its levels exist, the path
// allocates nothing.
func (s *Sampler) UpdateHashed(i uint64, delta int64, top int, zPow field.Elem) {
	if i >= s.sh.dom {
		panic("l0: index out of domain")
	}
	iRed := field.Reduce(i)
	dMom, dFp := recovery.DeltaTerms(iRed, zPow, delta)
	s.grow(top + 1)
	st, cells := s.sh.stride, s.cells
	for lv, shape := range s.sh.shapes[:top+1] {
		shape.ApplyDelta(cells[lv*st:(lv+1)*st], iRed, delta, dMom, dFp)
	}
}

// AddScaled adds scale copies of o into s. An absent o adds nothing and
// leaves an absent s absent.
func (s *Sampler) AddScaled(o *Sampler, scale int64) error {
	if s.sh != o.sh && (s.sh.seed != o.sh.seed || s.sh.dom != o.sh.dom || s.sh.cfg != o.sh.cfg) {
		return recovery.ErrIncompatible
	}
	// Compatible samplers share every level's geometry, so their arenas'
	// allocated prefixes line up cell for cell.
	s.grow(o.levels())
	recovery.AddCells(s.cells, o.cells, scale)
	return nil
}

// Clone returns a deep copy (the interned randomness is shared).
func (s *Sampler) Clone() *Sampler { return &Sampler{sh: s.sh, cells: slices.Clone(s.cells)} }

// CopyFrom makes s a copy of o, reusing s's arena when it is large
// enough: the scratch a caller sums samplers into without a Clone each time.
func (s *Sampler) CopyFrom(o *Sampler) {
	s.sh = o.sh
	s.cells = append(s.cells[:0], o.cells...)
}

// CloneRow deep-copies a row of samplers into a new by-value row.
func CloneRow(row []Sampler) []Sampler {
	cp := slices.Clone(row)
	for i := range cp {
		cp[i].cells = slices.Clone(cp[i].cells) // stays nil while absent
	}
	return cp
}

// IsZero reports whether the sketch is consistent with the zero vector.
func (s *Sampler) IsZero() bool {
	return len(s.cells) == 0 || s.cells[0].IsZero()
}

// Sample returns an element (index, value) of the support of f, chosen
// near-uniformly at random by the seed's min-hash, or ok = false if the
// support is empty or the sampler failed (all decodable levels were empty
// while the vector is nonzero — detected, never silent).
//
// The returned coordinate is certified by the recovery fingerprints: up to
// fingerprint collision probability (~2^-40) it is a true element of the
// support with its true value.
func (s *Sampler) Sample() (idx uint64, val int64, ok bool) {
	lm.draws.Inc()
	buf := coordPool.Get().(*[]recovery.Coord)
	defer coordPool.Put(buf)
	// Scan from the sparsest allocated level down (the unallocated ones
	// above it are empty); the first decodable level with nonempty support
	// yields the sample.
	for lv := s.levels() - 1; lv >= 0; lv-- {
		level := s.level(lv)
		vec, decoded := level.DecodeAppend((*buf)[:0])
		*buf = vec
		if !decoded {
			// This level is too dense; all sparser levels were empty,
			// so the support-size transition skipped the window.
			lm.failures.Inc()
			obs.RecordEvent("l0.sample_failure", slog.Int("level", lv), slog.Int("max_levels", s.sh.cfg.MaxLevels))
			return 0, 0, false
		}
		if len(vec) == 0 {
			continue
		}
		best := vec[0]
		bestHash := ^uint64(0)
		for _, c := range vec {
			h := hashutil.Mix64(s.sh.tie + hashutil.Mix64(c.Index))
			if h < bestHash {
				bestHash = h
				best = c
			}
		}
		lm.successes.Inc()
		return best.Index, best.Value, true
	}
	lm.empties.Inc()
	return 0, 0, false // genuinely empty support
}

// coordPool holds the coordinate buffers Sample decodes levels into, so a
// draw allocates nothing after warm-up.
var coordPool = sync.Pool{New: func() any { return new([]recovery.Coord) }}

// Domain returns the exclusive index upper bound.
func (s *Sampler) Domain() uint64 { return s.sh.dom }

// Config returns the (defaulted) configuration.
func (s *Sampler) Config() Config { return s.sh.cfg }

// StateWords returns the cells-only footprint in 64-bit words: exactly the
// sampler's serialized content, and the message size of a vertex share in
// the simultaneous communication model (the shared randomness is public and
// never transmitted). Containers that know their family structure — a
// spanning sketch's n same-seed samplers per round — combine StateWords
// with one SharedWords per family for exact deterministic accounting.
func (s *Sampler) StateWords() int { return 3 * len(s.cells) }

// SharedWords returns the size in 64-bit words of the interned seed-derived
// randomness this sampler references (fingerprint ladder, level hash,
// tie-break seed, and every level's bucket-hash coefficients). Every
// same-parameter sampler references the same copy; count it once per family.
func (s *Sampler) SharedWords() int { return s.sh.words }
