package stream

import "graphsketch/internal/obs"

// Edge-list loader fault counters: what ReadEdgeList discarded or refused
// while parsing a dataset file. Self-loops are dropped silently; parse
// errors abort the load but still count, so a scrape after a failed load
// shows where ingestion stopped. The handles are nil while collection is
// disabled.
var sm struct {
	elLoops  *obs.Counter // edgelist_self_loops_dropped_total
	elErrors *obs.Counter // edgelist_parse_errors_total
}

func init() {
	obs.OnEnable(func(r *obs.Registry) {
		sm.elLoops = r.Counter("edgelist_self_loops_dropped_total",
			"Edge-list self-loop edges dropped by ReadEdgeList")
		sm.elErrors = r.Counter("edgelist_parse_errors_total",
			"Edge-list lines rejected by ReadEdgeList with a parse error")
	})
}
