package main

import (
	"fmt"
	"math"
	"regexp"
	"slices"
)

// metricDef names one reported metric. BENCHMARK.json at the repository root
// lists the same names and units; metrics_test.go keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees, printed by an
// untraced run (-trace 0). Every one is computed per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"sim_nnz_per_s", "entries/s"},
	{"cpu_ms_per_run", "ms"},
	{"peak_rss_mb", "MiB"},
	{"sim_time_us", "us"},
	{"ok_frac", "ok/attempted"},
}

// perLayer are the metrics of single layers, printed by a traced run
// (-trace 1). Host times are self time per request unless the name says
// otherwise; sim.* and interconnect.* are modelled and repeat exactly. A
// layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"gen.build_s", "s"},
	{"mtx.read_csc_s", "s"},
	{"mtx.read_mb_per_s", "MB/s"},
	{"partition.build_s", "s"},
	{"partition.long_cols", "count"},
	{"gearbox.new_ms", "ms"},
	{"gearbox.warmup_ms", "ms"},
	{"gearbox.reset_ms", "ms"},
	{"gearbox.step1_ms", "ms"},
	{"gearbox.step2_ms", "ms"},
	{"gearbox.step3_ms", "ms"},
	{"gearbox.step4_ms", "ms"},
	{"gearbox.step5_ms", "ms"},
	{"gearbox.step6_ms", "ms"},
	{"gearbox.iterate_ns_per_nnz", "ns"},
	{"gearbox.allocs_per_iter", "count"},
	{"gearbox.alloc_kb_per_run", "KiB"},
	{"gearbox.dispatcher_hw", "pairs"},
	{"apps.self_ms", "ms"},
	{"par.busy_frac", "frac"},
	{"par.steals", "count"},
	{"par.merge_ms", "ms"},
	{"par.overlap_ms", "ms"},
	{"pipeline.inflight_hw", "chunks"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.exec_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.response_kb", "KiB"},
	{"serve.pool_hits", "count"},
	{"serve.pool_misses", "count"},
	{"serve.shed", "count"},
	{"serve.errors", "count"},
	{"serve.metrics_scrape_ms", "ms"},
	{"sim.step1_us", "us"},
	{"sim.step2_us", "us"},
	{"sim.step3_us", "us"},
	{"sim.step4_us", "us"},
	{"sim.step5_us", "us"},
	{"sim.step6_us", "us"},
	{"sim.iterations", "count"},
	{"sim.activated_nnz", "count"},
	{"sim.remote_frac", "frac"},
	{"sim.energy_uj", "uJ"},
	{"interconnect.ring_words", "words"},
	{"interconnect.tsv_words", "words"},
	{"trace.overhead_frac", "frac"},
	{"trace.self_sum_frac", "frac"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// metricValue is one metric as the result line reports it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: whether every output checked out,
// how many requests ran and failed, and the metrics by name.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult keeps the metrics defs names, with their units, from values. A
// def without a value is an error: every run prints its full metric set.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int, correct bool) (result, error) {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r, r.validate()
}

// validate checks the result against the output contract: grammar of names
// and units, finite values, at least one attempt.
func (r result) validate() error {
	if r.Attempted < 1 {
		return fmt.Errorf("attempted %d < 1", r.Attempted)
	}
	if r.Failed < 0 || r.Failed > r.Attempted {
		return fmt.Errorf("failed %d out of [0, %d]", r.Failed, r.Attempted)
	}
	for name, m := range r.Metrics { //gearbox:nondet-ok any invalid entry fails the result; which one is reported first does not matter
		if !nameRE.MatchString(name) {
			return fmt.Errorf("metric name %q does not match %s", name, nameRE)
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q does not match %s", name, m.Unit, unitRE)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s: value %v is not finite", name, m.Value)
		}
	}
	return nil
}

// median of xs (not modified).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, median and Q3 with the method of Python's
// statistics.quantiles(xs, n=4) (exclusive), the one used to judge a
// benchmark's spread. Fewer than two samples give the sample itself.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// tailLadder lists the percentiles latency_tail_ms may report, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailPercentile picks the highest ladder percentile that leaves at least
// minBeyond samples above its nearest-rank position and returns it with its
// value. ok is false when even the median leaves fewer, in which case the
// median is returned.
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n == 0 {
		return 50, 0, false
	}
	for _, p := range tailLadder {
		// Nearest rank; the epsilon keeps 99.9% of 10000 at 9990, not 9991.
		rank := int(math.Ceil(p/100*float64(n) - 1e-9))
		if n-rank >= minBeyond {
			return p, s[rank-1], true
		}
	}
	return 50, median(s), false
}

// sampleStats is the steadiness record of one metric's samples in a run.
type sampleStats struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func statsOf(xs []float64) sampleStats {
	q1, q2, q3 := quartiles(xs)
	return sampleStats{N: len(xs), Q1: q1, Median: q2, Q3: q3}
}
