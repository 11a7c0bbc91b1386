package edgeconn

import "graphsketch/internal/obs"

// skeletonSpan times skeleton decodes on cache misses (cache hits are free
// and open no span, so the histogram reflects actual decode work).
var skeletonSpan = obs.NewSpanKind("edgeconn.skeleton",
	"Edge-connectivity k-skeleton decode latency (cache misses)")
