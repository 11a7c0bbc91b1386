package shardplane

import (
	"log/slog"
	"runtime"
	"sync"
	"time"

	"graphsketch"
	"graphsketch/internal/graph"
	"graphsketch/internal/obs"
)

// Options configures a LocalTransport.
type Options struct {
	// Shards is the number of goroutine shards (vertex ranges). 0 means
	// GOMAXPROCS; the count is capped at the sketch's vertex count.
	Shards int
}

// LocalTransport runs the shard plane in-process: a pool of persistent
// goroutines, each owning a disjoint contiguous vertex range of one shared
// Sharded sketch. Route blocks until the batch is fully applied, calls
// never overlap, and the steady-state routing path performs zero
// allocations — this is the engine's historical worker pool, now living
// behind the Transport contract.
type LocalTransport struct {
	target graphsketch.Sharded
	bounds []int // len(shards)+1 boundaries over [0, n)
	jobs   []chan job
	wg     sync.WaitGroup

	// mu serializes routes against each other and against Close:
	// concurrent Route callers apply whole batches back to back (the
	// merged state is identical either way — the sketches are linear), and
	// Close cannot close a job channel mid-send. It also protects the
	// dispatch scratch below, which is reused across calls so the
	// steady-state ingest path performs zero allocations.
	mu     sync.Mutex
	closed bool
	errs   []error // one slot per shard
	done   sync.WaitGroup

	stats *shardStats // per-shard skew metrics; nil when obs is disabled
}

type job struct {
	batch    []graph.WeightedEdge
	enqueued time.Time // dispatch timestamp; zero when obs is disabled
}

// NewLocal returns a local transport over target with opt.Shards vertex
// shards. The shard boundaries are fixed for the transport's lifetime:
// shard s owns vertices [Bounds()[s], Bounds()[s+1]).
func NewLocal(target graphsketch.Sharded, opt Options) *LocalTransport {
	n := target.NumVertices()
	w := opt.Shards
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	t := &LocalTransport{target: target, jobs: make([]chan job, w)}
	t.bounds = SplitBounds(n, w)
	t.errs = make([]error, w)
	t.stats = newShardStats(obs.Default(), w)
	for i := range t.jobs {
		t.jobs[i] = make(chan job)
		t.wg.Add(1)
		go t.shard(i)
	}
	return t
}

func (t *LocalTransport) shard(i int) {
	defer t.wg.Done()
	lo, hi := t.bounds[i], t.bounds[i+1]
	for j := range t.jobs[i] {
		//lint:ignore lockatomic each shard owns slot errs[i] exclusively while a batch is in flight; Route reads the slots only after done.Wait, which is the happens-before edge
		if t.stats == nil {
			t.errs[i] = t.target.UpdateBatchRange(j.batch, lo, hi)
		} else {
			started := time.Now()
			t.errs[i] = t.target.UpdateBatchRange(j.batch, lo, hi)
			t.stats.observeJob(i, j, started)
		}
		t.done.Done()
	}
}

// Shards returns the number of goroutine shards.
func (t *LocalTransport) Shards() int { return len(t.jobs) }

// Bounds returns the fixed shard boundaries.
func (t *LocalTransport) Bounds() []int { return t.bounds }

// Route applies the batch through the shard pool and blocks until every
// shard has finished. On error the sketch state is unspecified (each shard
// stops at its first failing edge); the first error by shard index is
// returned. Concurrent calls are applied one batch at a time; after Close
// every call returns ErrClosed.
func (t *LocalTransport) Route(batch []graph.WeightedEdge) error {
	if len(batch) == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	// The whole fan-out is one route span; decode traces started
	// elsewhere stay separate trees — ingest and decode are causally
	// independent.
	sp := obs.StartSpan(routeSpan)
	defer sp.End(slog.Int("updates", len(batch)), slog.Int("shards", len(t.jobs)))
	j := job{batch: batch}
	if t.stats != nil {
		j.enqueued = time.Now()
	}
	for i := range t.errs {
		t.errs[i] = nil
	}
	t.done.Add(len(t.jobs))
	for i := range t.jobs {
		t.jobs[i] <- j
	}
	if t.stats != nil {
		// Count shard ownership while the shards run; the dispatcher
		// would only be blocked on done.Wait otherwise.
		t.stats.countOwned(batch, t.bounds)
	}
	t.done.Wait()
	for _, err := range t.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close shuts the shard pool down and waits for the shards to exit. It is
// idempotent and safe to call concurrently with in-flight routes: the
// running batch completes first, and later routes return ErrClosed.
func (t *LocalTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	for i := range t.jobs {
		close(t.jobs[i])
	}
	t.wg.Wait()
	return nil
}

var _ Transport = (*LocalTransport)(nil)
