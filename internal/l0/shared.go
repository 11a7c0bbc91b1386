package l0

import (
	"sync"

	"graphsketch/internal/field"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/recovery"
)

// sharedRand is the seed-derived public randomness of a sampler: the level
// hash, tie-break seed, fingerprint point with its exponentiation ladder,
// and one recovery.Shape per subsampling level. Everything in it is
// immutable after construction and determined entirely by (seed, domain,
// config), so every sampler built from the same parameters can share one
// instance. A spanning sketch holds one sampler per vertex per round with
// the round's seed — a NewRow of n samplers per round. The row looks its
// entry up once, and each sampler, absent or not, holds only a pointer to
// it, so the round pays for this randomness once and an untouched sampler
// pays nothing beyond that pointer and its nil cell arena.
type sharedRand struct {
	cfg    Config // defaulted
	dom    uint64
	seed   uint64
	lh     hashutil.LevelHash
	tie    uint64 // seed for the min-hash tie-break used by Sample
	z      field.Elem
	ladder *field.Ladder
	shapes []*recovery.Shape // per-level geometry and bucket hashes
	stride int               // cells per level, equal for every level's shape
	words  int               // derived-randomness words
}

type sharedKey struct {
	seed uint64
	dom  uint64
	cfg  Config
}

// registry interns sharedRand values. Entries are retained so later
// same-parameter samplers (the overwhelmingly common case: every vertex of
// every round, and every reconstruction retry with the same seed) hit the
// cache. The map is bounded: if a workload churns through more than
// registryCap distinct parameterizations, the map is reset — live samplers
// keep their entries via their own pointers, and re-deriving a dropped
// entry is correct because the randomness is a pure function of the key.
var (
	registryMu sync.Mutex
	registry   = make(map[sharedKey]*sharedRand)
)

const registryCap = 1 << 12

func internShared(seed, dom uint64, cfg Config) *sharedRand {
	key := sharedKey{seed: seed, dom: dom, cfg: cfg}
	registryMu.Lock()
	if sh, ok := registry[key]; ok {
		registryMu.Unlock()
		return sh
	}
	registryMu.Unlock()
	// Build outside the lock: derivation is pure, so a racing builder at
	// worst duplicates work and the second re-check below discards it.
	sh := newSharedRand(seed, dom, cfg)
	registryMu.Lock()
	if exist, ok := registry[key]; ok {
		registryMu.Unlock()
		return exist
	}
	if len(registry) >= registryCap {
		registry = make(map[sharedKey]*sharedRand)
	}
	registry[key] = sh
	registryMu.Unlock()
	return sh
}

// newSharedRand derives the full randomness for (seed, dom, cfg). The
// derivation schedule (which sub-seed feeds what) is unchanged from the
// pre-interning sampler, so seeded tests and serialized states are
// unaffected.
func newSharedRand(seed, dom uint64, cfg Config) *sharedRand {
	ss := hashutil.NewSeedStream(seed)
	z := recovery.FingerprintPoint(ss.At(2))
	sh := &sharedRand{
		cfg:    cfg,
		dom:    dom,
		seed:   seed,
		lh:     hashutil.NewLevelHash(ss.At(0), cfg.MaxLevels-1),
		tie:    ss.At(1),
		z:      z,
		ladder: field.NewLadder(z),
		shapes: make([]*recovery.Shape, cfg.MaxLevels),
	}
	rcfg := recovery.SSparseConfig{S: cfg.S, Rows: cfg.Rows, BucketsPerS: cfg.BucketsPerS}
	words := 64 /* ladder */ + 1 /* z */ + 2 /* level hash */ + 1 /* tie */
	for lv := range sh.shapes {
		sh.shapes[lv] = recovery.NewShape(ss.At(uint64(100+lv)), dom, rcfg, z)
		words += sh.shapes[lv].RandWords()
	}
	sh.stride = sh.shapes[0].Cells()
	sh.words = words
	return sh
}
