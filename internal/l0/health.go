package l0

import "graphsketch/internal/obs"

// Health introspects the sampler for the obs Inspector tree: level
// allocation, cell occupancy, and whether the next Sample draw is at risk
// of a detected failure. The at-risk walk mirrors Sample exactly — scan
// from the sparsest allocated level down; the first over-dense level
// (per recovery.SSparse.MaybeDecodable) reached before a populated
// decodable one is where Sample would fail.
func (s *Sampler) Health() obs.Report {
	allocated, cells, nonzero, top := 0, 0, 0, -1
	for lv := len(s.levels) - 1; lv >= 0; lv-- {
		t := s.levels[lv]
		if t == nil {
			continue
		}
		allocated++
		if top < 0 {
			top = lv
		}
		c, nz := t.CellStats()
		cells += c
		nonzero += nz
	}
	atRisk := 0.0
	for lv := len(s.levels) - 1; lv >= 0; lv-- {
		t := s.levels[lv]
		if t == nil {
			continue
		}
		if !t.MaybeDecodable() {
			atRisk = 1
			break
		}
		if _, nz := t.CellStats(); nz > 0 {
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
			"top_level":        float64(top),
			"cell_fill":        fill,
			"at_risk":          atRisk,
		},
	}
}
