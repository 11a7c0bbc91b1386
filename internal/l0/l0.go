// Package l0 implements L0 samplers in the style of Jowhari, Saglam and
// Tardos: linear sketches of a dynamically updated vector f ∈ Z^domain from
// which, at query time, one can extract a (near-)uniformly random element of
// the support of f — or detect that the support is empty.
//
// The construction layers geometric subsampling over certified s-sparse
// recovery: coordinate i participates in levels 0..Level(i) where
// P[Level(i) ≥ l] = 2^-l, and each level holds an s-sparse recovery
// structure. Whatever the support size, some level whp holds between 1 and
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
	"math/bits"
	"slices"

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
// Allocation is lazy at two grains. An absent sampler, one no update or
// merge has reached, has a nil level slice and no heap object of its own
// (NewRow lays a round's samplers out by value); queries, serialization,
// Clone and merging in an absent source all leave it absent. After that, a
// level's recovery structure materializes on the first update that reaches
// it. A coordinate reaches level l with probability 2^-l, so a sampler
// that has seen d updates allocates about log2(d) levels — this is what
// keeps a full graph sketch (one sampler per vertex per round)
// proportional to the sketch's *information* content rather than to n or
// the worst-case level count. An absent sampler or unallocated level is
// exactly a zero structure; linearity is unaffected.
//
// The sampler's own state is only the level slice; every derived constant
// (hashes, ladder, per-level shapes, pre-defaulted config) lives in the
// interned sharedRand, sized once from the domain at interning time.
type Sampler struct {
	sh     *sharedRand
	levels []*recovery.SSparse // nil while absent; nil entries are implicitly zero
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

// level returns the recovery structure for lv, allocating it (and, on an
// absent sampler, the level slice) if needed.
// Allocation is three pointer-free slices over the interned shape — no
// config re-derivation, no hash drawing.
func (s *Sampler) level(lv int) *recovery.SSparse {
	if s.levels == nil {
		s.levels = make([]*recovery.SSparse, s.sh.cfg.MaxLevels)
	}
	t := s.levels[lv]
	if t == nil {
		t = recovery.NewSSparseFromShape(s.sh.shapes[lv])
		s.levels[lv] = t
	}
	return t
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
	if s.levels == nil {
		s.levels = make([]*recovery.SSparse, s.sh.cfg.MaxLevels)
	}
	levels := s.levels
	for lv := 0; lv <= top; lv++ {
		t := levels[lv]
		if t == nil { // manual inline of level(): keep the hot loop call-free
			t = recovery.NewSSparseFromShape(s.sh.shapes[lv])
			levels[lv] = t
		}
		t.ApplyDelta(iRed, delta, dMom, dFp)
	}
}

// AddScaled adds scale copies of o into s. An absent o adds nothing and
// leaves an absent s absent.
func (s *Sampler) AddScaled(o *Sampler, scale int64) error {
	if s.sh != o.sh && (s.sh.seed != o.sh.seed || s.sh.dom != o.sh.dom || s.sh.cfg != o.sh.cfg) {
		return recovery.ErrIncompatible
	}
	for lv := range o.levels {
		if o.levels[lv] == nil {
			continue // adding zero
		}
		if err := s.level(lv).AddScaled(o.levels[lv], scale); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a deep copy (the interned randomness is shared).
func (s *Sampler) Clone() *Sampler { return &CloneRow([]Sampler{*s})[0] }

// CloneRow deep-copies a row of samplers into a new by-value row.
func CloneRow(row []Sampler) []Sampler {
	cp := slices.Clone(row)
	for i := range cp {
		cp[i].levels = slices.Clone(cp[i].levels) // stays nil while absent
		for lv, t := range cp[i].levels {
			if t != nil {
				cp[i].levels[lv] = t.Clone()
			}
		}
	}
	return cp
}

// IsZero reports whether the sketch is consistent with the zero vector.
func (s *Sampler) IsZero() bool {
	return s.levels == nil || s.levels[0] == nil || s.levels[0].IsZero()
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
	// Scan from the sparsest level down; the first decodable level with
	// nonempty support yields the sample.
	for lv := len(s.levels) - 1; lv >= 0; lv-- {
		if s.levels[lv] == nil {
			continue // unallocated level is empty
		}
		vec, decoded := s.levels[lv].Decode()
		if !decoded {
			// This level is too dense; all sparser levels were empty,
			// so the support-size transition skipped the window.
			lm.failures.Inc()
			obs.RecordEvent("l0.sample_failure", "level", lv, "max_levels", len(s.levels))
			return 0, 0, false
		}
		if len(vec) == 0 {
			continue
		}
		best := uint64(0)
		bestHash := ^uint64(0)
		for i := range vec {
			h := hashutil.Mix64(s.sh.tie + hashutil.Mix64(i))
			if h < bestHash {
				bestHash = h
				best = i
			}
		}
		lm.successes.Inc()
		return best, vec[best], true
	}
	lm.empties.Inc()
	return 0, 0, false // genuinely empty support
}

// Decode attempts full recovery of the vector, which succeeds when the
// support has at most S elements (level 0 decodes). This is what the
// spanning-graph sketches use when a supernode has few incident edges.
func (s *Sampler) Decode() (map[uint64]int64, bool) {
	if s.levels == nil || s.levels[0] == nil {
		return map[uint64]int64{}, true
	}
	return s.levels[0].Decode()
}

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
func (s *Sampler) StateWords() int {
	w := 0
	for _, lv := range s.levels {
		if lv != nil {
			w += lv.Words()
		}
	}
	return w
}

// SharedWords returns the size in 64-bit words of the interned seed-derived
// randomness this sampler references (fingerprint ladder, level hash,
// tie-break seed, and every level's bucket-hash coefficients). Every
// same-parameter sampler references the same copy; count it once per family.
func (s *Sampler) SharedWords() int { return s.sh.words }
