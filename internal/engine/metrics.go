package engine

import (
	"graphsketch/internal/obs"
)

// Engine-level metric handles, bound by the obs enable hook. They are nil
// while collection is disabled, and every call site branches on a handle
// first, so the disabled ingest path never touches an atomic. Per-shard
// routing metrics (skew counters, route latency, queue wait) moved to the
// shard plane with the routing itself: see the shardplane_* family.
var em struct {
	batches *obs.Counter // engine_batches_total
	updates *obs.Counter // engine_updates_total
}

func init() {
	obs.OnEnable(func(r *obs.Registry) {
		em.batches = r.Counter("engine_batches_total",
			"Batches dispatched through the shard plane")
		em.updates = r.Counter("engine_updates_total",
			"Edge updates contained in dispatched batches")
	})
}
