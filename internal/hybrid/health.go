package hybrid

import "graphsketch/internal/obs"

// Health introspects the hybrid representation (obs.Inspector): the spill
// fraction and mean exact-buffer occupancy (fraction of the word budget in
// use, over unspilled vertices), with the inner sketch's own report
// nested. A spill fraction near 1 means the stream has outgrown the exact
// tier and the hybrid is paying pure-sketch costs plus buffer bookkeeping;
// occupancy near 1 with a low spill fraction means the budget sits right
// at the workload's degree knee.
func (s *Sketch) Health() obs.Report {
	n := s.dom.N()
	spilled := 0
	occSum := 0.0
	for v := 0; v < n; v++ {
		if s.spilled[v] {
			spilled++
			continue
		}
		occSum += float64(2*len(s.keys[v])) / float64(s.budget)
	}
	m := map[string]float64{
		"n":              float64(n),
		"budget_words":   float64(s.budget),
		"spilled":        float64(spilled),
		"spill_fraction": float64(spilled) / float64(n),
	}
	if unspilled := n - spilled; unspilled > 0 {
		m["buffer_occupancy_mean"] = occSum / float64(unspilled)
	}
	return obs.Report{Structure: "hybrid", Metrics: m, Subs: []obs.Report{s.inner.Health()}}
}

var _ obs.Inspector = (*Sketch)(nil)
