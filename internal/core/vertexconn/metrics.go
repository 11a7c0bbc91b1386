package vertexconn

import "graphsketch/internal/obs"

// Decode-path instrumentation: H-build (Decode) latency plus the count of tolerated
// forest-decode failures (each failed forest removes one of the R redundant
// witnesses, so a steady nonzero rate erodes the union bound long before
// Decode starts erroring).
var vm struct {
	failures *obs.Counter // vertexconn_forest_failures_total
}

var buildHSpan = obs.NewSpanKind("vertexconn.build_h",
	"H build (union of R spanning forests) decode latency")

func init() {
	obs.OnEnable(func(r *obs.Registry) {
		vm.failures = r.Counter("vertexconn_forest_failures_total",
			"Tolerated per-subgraph spanning-forest decode failures in the H build")
	})
}
