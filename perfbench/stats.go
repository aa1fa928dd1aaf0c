package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs: the smallest sample
// with at least a q share of the samples at or below it. xs need not be
// sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// beyond is the number of samples ranked above the nearest-rank
// q-quantile of n samples.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailSamples is how many samples must lie beyond a reported percentile.
const tailSamples = 10

// minSamples is the smallest sample count that leaves tailSamples beyond
// the q-quantile — 100 for the 90th percentile.
func minSamples(q float64) int {
	n := 1
	for beyond(n, q) < tailSamples {
		n++
	}
	return n
}

// median of durations, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return quantile(xs, 0.5)
}

// metric is one reported figure: a name, a unit and a direction.
type metric struct {
	name, unit  string
	lowerBetter bool
}

// endToEnd are the figures a user of the daemon sees, reported by every
// untraced run (BENCHMARK.json "end_to_end").
var endToEnd = []metric{
	{"setup_s", "s", true},
	{"throughput_rps", "1/s", false},
	{"latency_p50_s", "s", true},
	{"latency_p90_s", "s", true},
	{"cpu_s_per_req", "s", true},
	{"peak_rss_mb", "MiB", true},
	{"ser_ratio_pct", "%", true},
}

// perLayer are the traced run's figures (BENCHMARK.json "per_layer").
// Times are self times in seconds per replayed request; README.md maps
// each to the end-to-end metric and workload it should move.
var perLayer = []metric{
	{"core.minimize_s", "s", true},
	{"core.gains_s", "s", true},
	{"core.steps", "count", true},
	{"core.rounds", "count", true},
	{"retime.init_s", "s", true},
	{"graph.rebase_s", "s", true},
	{"graph.rebuild_s", "s", true},
	{"graph.from_circuit_s", "s", true},
	{"obs.compute_s", "s", true},
	{"ser.obs_map_s", "s", true},
	{"ser.compute_s", "s", true},
	{"serretime.apply_delta_s", "s", true},
	{"benchfmt.parse_s", "s", true},
	{"benchfmt.write_s", "s", true},
	{"service.job_key_s", "s", true},
	{"store.journal_submitted_s", "s", true},
	{"store.journal_done_s", "s", true},
	{"store.recover_s", "s", true},
	{"service.queue_wait_s", "s", true},
	{"service.solve_s", "s", true},
	{"service.cache_hit_frac", "fraction", false},
	{"service.session_warm_frac", "fraction", false},
	{"http.polls_per_result", "count", true},
	{"trace.coverage_frac", "fraction", false},
	{"trace.overhead_frac", "fraction", true},
}
