package shardplane

import (
	"strconv"
	"time"

	"graphsketch/internal/graph"
	"graphsketch/internal/obs"
)

// Shard-plane metric handles, bound by the obs enable hook. They are nil
// while collection is disabled, and the hot routing paths branch on a
// transport's stats pointer first, so the disabled path never reads a
// clock or touches an atomic.
var spm struct {
	queueWait     *obs.Histogram // shardplane_queue_wait_seconds
	txBytes       *obs.Counter   // shardplane_tcp_tx_bytes_total
	rxBytes       *obs.Counter   // shardplane_tcp_rx_bytes_total
	reconnects    *obs.Counter   // shardplane_reconnects_total
	gatherRejects *obs.Counter   // shardplane_gather_rejects_total
}

func init() {
	obs.OnEnable(func(r *obs.Registry) {
		spm.queueWait = r.Histogram("shardplane_queue_wait_seconds",
			"Time a routed job waited before its shard picked it up", nil)
		spm.txBytes = r.Counter("shardplane_tcp_tx_bytes_total",
			"Frame bytes written to shard connections by the TCP transport")
		spm.rxBytes = r.Counter("shardplane_tcp_rx_bytes_total",
			"Frame bytes read from shard connections by the TCP transport")
		spm.reconnects = r.Counter("shardplane_reconnects_total",
			"Shard connections re-dialed and restored from checkpoint after a failure")
		spm.gatherRejects = r.Counter("shardplane_gather_rejects_total",
			"Gather frames rejected before merging (fingerprint or decode failure)")
	})
}

var (
	routeSpan   = obs.NewSpanKind("shardplane.route", "Wall time of Route: dispatch to last shard applied")
	gatherSpan  = obs.NewSpanKind("shardplane.gather", "Wall time of Gather: pull and merge every shard's checkpoint")
	sessionSpan = obs.NewSpanKind("shardplane.session", "Lifetime of one coordinator session at a shard server")
)

// shardStat is one shard's skew-detection pair: how many of the routed
// edges the shard actually owned, and how long it spent applying them. A
// healthy plane shows near-uniform values; a star-graph hot spot shows up
// as one shard's busy-time dwarfing the rest.
type shardStat struct {
	edges *obs.Counter // shardplane_shard_edges_total{shard="i"}
	busy  *obs.Gauge   // shardplane_shard_busy_seconds{shard="i"}
}

// shardStats is the per-transport handle bundle; nil when the transport
// was constructed with collection disabled (the fast path).
type shardStats struct {
	shards []shardStat
	owned  []int64 // per-route owned-edge scratch, guarded by the transport mutex
}

// newShardStats binds per-shard series against the registry; returns nil
// on a nil registry, which disables the instrumented paths.
func newShardStats(r *obs.Registry, shards int) *shardStats {
	if r == nil {
		return nil
	}
	st := &shardStats{
		shards: make([]shardStat, shards),
		owned:  make([]int64, shards),
	}
	for i := range st.shards {
		shard := strconv.Itoa(i)
		st.shards[i] = shardStat{
			edges: r.Counter("shardplane_shard_edges_total",
				"Edges owned (>= 1 endpoint in range) per shard", "shard", shard),
			busy: r.Gauge("shardplane_shard_busy_seconds",
				"Cumulative time each shard spent applying updates", "shard", shard),
		}
	}
	return st
}

// observeJob records one executed job for shard i: queue wait and busy
// time. Owned-edge counting happens on the dispatcher (countOwned), not
// here, so the enabled shard path adds only two clock reads per job.
func (st *shardStats) observeJob(i int, j job, started time.Time) {
	spm.queueWait.Observe(started.Sub(j.enqueued).Seconds())
	st.shards[i].busy.Add(time.Since(started).Seconds())
}

// countOwned tallies, per shard, the batch edges with at least one endpoint
// in the shard's range. It runs on the dispatcher goroutine while the
// shards apply the batch — dead time otherwise — so the count costs no
// shard cycles and no extra wall clock unless the scan outlasts the
// (much heavier) sampler updates.
func (st *shardStats) countOwned(batch []graph.WeightedEdge, bounds []int) {
	w := len(bounds) - 1
	n := bounds[w]
	if w == 1 {
		// One shard owns everything; skip the scan (it would compete with
		// the single shard for the CPU on single-core machines).
		st.shards[0].edges.Add(int64(len(batch)))
		return
	}
	for i := range st.owned {
		st.owned[i] = 0
	}
	for _, we := range batch {
		prev := -1
		for _, v := range we.E {
			if v < 0 || v >= n {
				continue // the owning shard will report the range error
			}
			i := shardOf(bounds, n, w, v)
			// Hyperedge endpoints are sorted, so same-shard duplicates
			// are adjacent: each edge counts once per owning shard.
			if i != prev {
				st.owned[i]++
				prev = i
			}
		}
	}
	for i, c := range st.owned {
		if c != 0 {
			st.shards[i].edges.Add(c)
		}
	}
}
