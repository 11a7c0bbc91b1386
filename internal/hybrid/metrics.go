package hybrid

import "graphsketch/internal/obs"

// Hybrid-store instrumentation. The routed counters give the exact-hit
// ratio (exact / (exact + sketch)): a ratio drifting toward zero means the
// workload has outgrown the exact budget and the hybrid is paying wrapper
// overhead for nothing. Spill occupancy is observed at spill time (how full
// the buffer was when it overflowed — always ≈1 unless spills come from
// Merge folding two part-full buffers); the occupancy histogram samples
// every unspilled buffer's fullness at decode time.
var hm struct {
	spills          *obs.Counter   // hybrid_spills_total
	exactRouted     *obs.Counter   // hybrid_exact_routed_total
	sketchRouted    *obs.Counter   // hybrid_sketch_routed_total
	exactDecodes    *obs.Counter   // hybrid_exact_decodes_total
	mixedDecodes    *obs.Counter   // hybrid_mixed_decodes_total
	mixedComponents *obs.Counter   // hybrid_mixed_components_total
	spilledVerts    *obs.Gauge     // hybrid_spilled_vertices
	occupancy       *obs.Histogram // hybrid_buffer_occupancy
	spillOccupancy  *obs.Histogram // hybrid_spill_occupancy
}

var spanningSpan = obs.NewSpanKind("hybrid.spanning_graph",
	"Spanning decode latency: exact contraction plus any sampler rounds")

// fractionBuckets covers [0, 1] occupancy ratios in eighths.
func fractionBuckets() []float64 {
	return []float64{0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1}
}

func init() {
	obs.OnEnable(func(r *obs.Registry) {
		hm.spills = r.Counter("hybrid_spills_total",
			"Vertices spilled from the exact buffer into the inner sketch")
		hm.exactRouted = r.Counter("hybrid_exact_routed_total",
			"Edge updates absorbed (at least partly) by exact buffers")
		hm.sketchRouted = r.Counter("hybrid_sketch_routed_total",
			"Edge updates forwarded (at least partly) to the inner sketch")
		hm.exactDecodes = r.Counter("hybrid_exact_decodes_total",
			"Spanning decodes with no sampler draw (at most one component held a spilled vertex)")
		hm.mixedDecodes = r.Counter("hybrid_mixed_decodes_total",
			"Spanning decodes that ran Boruvka rounds over spilled components")
		hm.mixedComponents = r.Counter("hybrid_mixed_components_total",
			"Component cuts drawn from summed samplers during spanning decodes")
		hm.spilledVerts = r.Gauge("hybrid_spilled_vertices",
			"Spilled vertices observed at the most recent decode")
		hm.occupancy = r.Histogram("hybrid_buffer_occupancy",
			"Exact-buffer fullness (words used / budget) per unspilled vertex, sampled at decode",
			fractionBuckets())
		hm.spillOccupancy = r.Histogram("hybrid_spill_occupancy",
			"Exact-buffer fullness at the moment of spilling",
			fractionBuckets())
	})
}
