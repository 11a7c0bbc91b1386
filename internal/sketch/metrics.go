package sketch

import "graphsketch/internal/obs"

// Decode-path instrumentation. The peel-round histogram records how many
// Boruvka rounds each spanning-forest decode needed; a distribution pressed
// against the configured round budget warns that decodes are about to start
// failing. Failures count every ErrDecodeFailed returned to a caller.
var skm struct {
	peelRounds *obs.Histogram // sketch_peel_rounds
	failures   *obs.Counter   // sketch_decode_failures_total
	spanSpan   *obs.Histogram // sketch_spanning_decode_seconds
	skelSpan   *obs.Histogram // sketch_skeleton_decode_seconds
}

func init() {
	obs.OnEnable(func(r *obs.Registry) {
		skm.peelRounds = r.Histogram("sketch_peel_rounds",
			"Boruvka peeling rounds used per spanning-forest decode",
			obs.CountBuckets(64))
		skm.failures = r.Counter("sketch_decode_failures_total",
			"Spanning-forest decodes that exhausted their rounds uncertified")
		skm.spanSpan = r.Histogram("sketch_spanning_decode_seconds",
			"Spanning-forest decode latency", obs.LatencyBuckets())
		skm.skelSpan = r.Histogram("sketch_skeleton_decode_seconds",
			"k-skeleton decode latency", obs.LatencyBuckets())
	})
}
