package l0

import "graphsketch/internal/obs"

// Sampler-health counters. Draws split three ways: a certified sample, a
// genuinely empty support, or a detected failure (the support-size
// transition skipped the decodable window). A rising failure fraction means
// the sparsity parameters are too tight for the workload.
var lm struct {
	draws     *obs.Counter // l0_sample_draws_total
	successes *obs.Counter // l0_sample_success_total
	empties   *obs.Counter // l0_sample_empty_total
	failures  *obs.Counter // l0_sample_failure_total
}

func init() {
	obs.OnEnable(func(r *obs.Registry) {
		lm.draws = r.Counter("l0_sample_draws_total",
			"L0 sampler Sample calls")
		lm.successes = r.Counter("l0_sample_success_total",
			"L0 sampler draws returning a certified support element")
		lm.empties = r.Counter("l0_sample_empty_total",
			"L0 sampler draws on a genuinely empty support")
		lm.failures = r.Counter("l0_sample_failure_total",
			"L0 sampler draws that failed (no level decoded with nonempty support)")
	})
}
