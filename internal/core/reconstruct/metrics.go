package reconstruct

import "graphsketch/internal/obs"

// Reconstruction instrumentation: end-to-end light-edge recovery latency
// and the number of peel rounds each recovery needed (bounded by n, but
// typically the number of density levels in the input).
var rm struct {
	peelRounds *obs.Histogram // reconstruct_peel_rounds
}

var lightEdgesSpan = obs.NewSpanKind("reconstruct.light_edges", "LightEdges recovery latency")

func init() {
	obs.OnEnable(func(r *obs.Registry) {
		rm.peelRounds = r.Histogram("reconstruct_peel_rounds",
			"Skeleton-peeling rounds per light-edge recovery",
			obs.CountBuckets(1024))
	})
}
