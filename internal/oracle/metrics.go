package oracle

import "graphsketch/internal/obs"

// Oracle-level metric handles, bound by the obs enable hook and shared by
// every oracle in the process (per-oracle counts live in CacheStats). They
// are nil while collection is disabled, and the query fast path gates its
// clock reads on the latency handle, so a disabled Connected costs only
// nil-receiver branches.
var om struct {
	queries      *obs.Counter   // oracle_queries_total
	hits         *obs.Counter   // oracle_cache_hits_total
	misses       *obs.Counter   // oracle_cache_misses_total
	failures     *obs.Counter   // oracle_rebuild_failures_total
	queryLatency *obs.Histogram // oracle_query_latency_seconds
}

var rebuildSpan = obs.NewSpanKind("oracle.rebuild",
	"Wall time of one snapshot rebuild: decode plus DSU flattening")

func init() {
	obs.OnEnable(func(r *obs.Registry) {
		om.queries = r.Counter("oracle_queries_total",
			"Connectivity queries served (Connected + DisconnectedBy)")
		om.hits = r.Counter("oracle_cache_hits_total",
			"Queries served lock-free from a current snapshot")
		om.misses = r.Counter("oracle_cache_misses_total",
			"Queries that found the snapshot missing or stale")
		om.failures = r.Counter("oracle_rebuild_failures_total",
			"Snapshot rebuilds whose decode errored")
		om.queryLatency = r.Histogram("oracle_query_latency_seconds",
			"Wall time of one connectivity query, rebuild included on a miss",
			obs.LatencyBuckets())
	})
}
