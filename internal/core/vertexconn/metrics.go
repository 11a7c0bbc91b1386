package vertexconn

import "graphsketch/internal/obs"

// Decode-path instrumentation: H-build (Decode) latency plus the count of tolerated
// forest-decode failures (each failed forest removes one of the R redundant
// witnesses, so a steady nonzero rate erodes the union bound long before
// Decode starts erroring).
var vm struct {
	buildSpan *obs.Histogram // vertexconn_buildh_seconds
	failures  *obs.Counter   // vertexconn_forest_failures_total
}

func init() {
	obs.OnEnable(func(r *obs.Registry) {
		vm.buildSpan = r.Histogram("vertexconn_buildh_seconds",
			"H build (union of R spanning forests) decode latency",
			obs.LatencyBuckets())
		vm.failures = r.Counter("vertexconn_forest_failures_total",
			"Tolerated per-subgraph spanning-forest decode failures in the H build")
	})
}
