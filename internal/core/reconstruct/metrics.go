package reconstruct

import "graphsketch/internal/obs"

// Reconstruction instrumentation: end-to-end light-edge recovery latency
// and the number of peel rounds each recovery needed (bounded by n, but
// typically the number of density levels in the input).
var rm struct {
	lightSpan  *obs.Histogram // reconstruct_light_edges_seconds
	peelRounds *obs.Histogram // reconstruct_peel_rounds
}

func init() {
	obs.OnEnable(func(r *obs.Registry) {
		rm.lightSpan = r.Histogram("reconstruct_light_edges_seconds",
			"LightEdges recovery latency", obs.LatencyBuckets())
		rm.peelRounds = r.Histogram("reconstruct_peel_rounds",
			"Skeleton-peeling rounds per light-edge recovery",
			obs.CountBuckets(1024))
	})
}
