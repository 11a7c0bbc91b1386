package sketch

import "graphsketch/internal/obs"

// Decode-path instrumentation. The peel-round histogram records how many
// Boruvka rounds each spanning-forest decode needed; a distribution pressed
// against the configured round budget warns that decodes are about to start
// failing. Failures count every ErrDecodeFailed returned to a caller.
var skm struct {
	peelRounds *obs.Histogram // sketch_peel_rounds
	failures   *obs.Counter   // sketch_decode_failures_total
}

// The decode layers, outermost first; each span feeds its own latency
// histogram (obs.NewSpanKind).
var (
	skeletonSpan      = obs.NewSpanKind("sketch.skeleton", "k-skeleton decode latency")
	skeletonLayerSpan = obs.NewSpanKind("sketch.skeleton_layer", "Spanning decode of one peeled skeleton layer")
	spanningSpan      = obs.NewSpanKind("sketch.spanning_graph", "Spanning-forest decode latency")
	peelRoundSpan     = obs.NewSpanKind("sketch.peel_round", "One Boruvka round of a spanning-forest decode")
)

func init() {
	obs.OnEnable(func(r *obs.Registry) {
		skm.peelRounds = r.Histogram("sketch_peel_rounds",
			"Boruvka peeling rounds used per spanning-forest decode",
			obs.CountBuckets(64))
		skm.failures = r.Counter("sketch_decode_failures_total",
			"Spanning-forest decodes that exhausted their rounds uncertified")
	})
}
