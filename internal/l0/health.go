package l0

import "graphsketch/internal/obs"

// Health introspects the sampler for the obs Inspector tree: level
// allocation, cell occupancy, and whether the next Sample draw is at risk
// of a detected failure. The at-risk walk mirrors Sample exactly — scan
// from the sparsest allocated level down; the first over-dense level
// (per recovery.SSparse.MaybeDecodable) reached before a populated
// decodable one is where Sample would fail.
func (s *Sampler) Health() obs.Report {
	allocated := s.levels()
	cells, nonzero := 0, 0
	for lv := 0; lv < allocated; lv++ {
		level := s.level(lv)
		c, nz := level.CellStats()
		cells += c
		nonzero += nz
	}
	atRisk := 0.0
	for lv := allocated - 1; lv >= 0; lv-- {
		level := s.level(lv)
		if !level.MaybeDecodable() {
			atRisk = 1
			break
		}
		if _, nz := level.CellStats(); nz > 0 {
			break // a decodable populated level: Sample succeeds here
		}
	}
	fill := 0.0
	if cells > 0 {
		fill = float64(nonzero) / float64(cells)
	}
	return obs.Report{
		Structure: "l0.sampler",
		Metrics: map[string]float64{
			"levels":           float64(s.sh.cfg.MaxLevels),
			"levels_allocated": float64(allocated),
			"top_level":        float64(allocated - 1),
			"cell_fill":        fill,
			"at_risk":          atRisk,
		},
	}
}
