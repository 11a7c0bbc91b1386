package sparsify

import (
	"fmt"

	"graphsketch/internal/obs"
)

// healthLevelCap bounds how many of the nested subsample levels a Health
// scan inspects — each level's report walks a (K+1)-layer skeleton, so
// levels are strided evenly.
const healthLevelCap = 4

// Health introspects the sparsifier (obs.Inspector): a strided sample of
// per-level skeleton reports (level 0 is the full graph, deeper levels are
// geometrically subsampled), with the worst sampled decode-failure risk
// promoted.
func (s *Sketch) Health() obs.Report {
	stride := 1
	if len(s.levels) > healthLevelCap {
		stride = (len(s.levels) + healthLevelCap - 1) / healthLevelCap
	}
	worst := 0.0
	var subs []obs.Report
	for i := 0; i < len(s.levels); i += stride {
		r := s.levels[i].Health()
		r.Structure = fmt.Sprintf("level[%d]", i)
		if risk := r.Metrics["decode_failure_risk"]; risk > worst {
			worst = risk
		}
		subs = append(subs, r)
	}
	return obs.Report{
		Structure: "sparsify",
		Metrics: map[string]float64{
			"k":                   float64(s.p.K),
			"n":                   float64(s.p.N),
			"levels":              float64(len(s.levels)),
			"levels_sampled":      float64(len(subs)),
			"decode_failure_risk": worst,
		},
		Subs: subs,
	}
}

var _ obs.Inspector = (*Sketch)(nil)
