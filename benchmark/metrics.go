package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
)

// metricDef declares one metric the harness emits; BENCHMARK.json lists
// the same names and units and adds the regression bounds.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of igpart/igpartd sees; every workload emits
// every one of them on an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is what the traced run reports; every workload emits every
// one of them. The in-process layers report means per replayed input,
// the service, igpartd and relay layers medians over the wire replay.
var perLayer = []metricDef{
	{"hypergraph.parse_ms", "ms", "lower"},
	{"hypergraph.canonical_ms", "ms", "lower"},
	{"hypergraph.parse_alloc_mb", "MB", "lower"},
	{"netmodel.ig_build_ms", "ms", "lower"},
	{"netmodel.laplacian_ms", "ms", "lower"},
	{"netmodel.ig_edges", "count", "lower"},
	{"netmodel.ig_build_alloc_mb", "MB", "lower"},
	{"eigen.fiedler_ms.p1", "ms", "lower"},
	{"eigen.fiedler_ms.pN", "ms", "lower"},
	{"eigen.matvecs", "count", "lower"},
	{"eigen.restarts", "count", "lower"},
	{"eigen.reorth_forced", "count", "lower"},
	{"eigen.reorth_skipped", "count", "higher"},
	{"eigen.non_matvec_ms", "ms", "lower"},
	{"eigen.fiedler_alloc_mb", "MB", "lower"},
	{"sparse.matvec_us.p1", "us", "lower"},
	{"sparse.matvec_us.pN", "us", "lower"},
	{"sparse.matvec_gbs_computed", "GB/s", "higher"},
	{"core.sort_ms", "ms", "lower"},
	{"core.conflict_adjacency_ms", "ms", "lower"},
	{"core.sweep_ms.p1", "ms", "lower"},
	{"core.sweep_ms.pN", "ms", "lower"},
	{"core.candidates_ms", "ms", "lower"},
	{"core.sweep_alloc_mb", "MB", "lower"},
	{"core.splits", "count", "lower"},
	{"core.ratio_cut_geomean", "ratio", "lower"},
	{"bipartite.augmentations", "count", "lower"},
	{"bipartite.phase1_winners", "count", "lower"},
	{"portfolio.delta_apply_ms", "ms", "lower"},
	{"portfolio.warm_start_ms", "ms", "lower"},
	{"portfolio.touched_nets", "count", "lower"},
	{"portfolio.warm_frac", "fraction", "higher"},
	{"portfolio.cut_vs_cold", "ratio", "lower"},
	{"service.queue_wait_p50_ms", "ms", "lower"},
	{"service.run_p50_ms", "ms", "lower"},
	{"igpartd.submit_p50_ms", "ms", "lower"},
	{"igpartd.get_p50_ms", "ms", "lower"},
	{"igpartd.hit_p50_ms", "ms", "lower"},
	{"igpartd.result_kb", "KB", "lower"},
	{"igpartd.polls_per_job", "count", "lower"},
	{"cluster.intake_p50_ms", "ms", "lower"},
	{"cluster.relay_p50_ms", "ms", "lower"},
	{"cluster.journal_accept_us", "us", "lower"},
	{"client.overhead_p50_ms", "ms", "lower"},
	{"trace.layer_sum_ratio", "ratio", "lower"},
}

// recorder collects the outcomes of the measured phase; clients call it
// concurrently.
type recorder struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	samples   []sample
	overhead  []float64          // ms outside the solver, traced runs only
	cuts      map[string]float64 // ratio cut by request label

	// onCount runs (under the lock) when the countAt-th request
	// completes; the peak-RSS probe hooks in here.
	countAt int
	onCount func()
}

// request identifies one request of a workload's sequence.
type request struct {
	class string // "cold", "hit" or "eco"
	group string // input kind the median is taken within: the circuit or the ECO base
	idx   int    // position in the sequence
	label string // names the ratio cut for the traced run; empty records none
}

// sample is one verified request.
type sample struct {
	request
	ms      float64   // latency
	quantum float64   // poll quantisation bound, ms
	cached  bool      // answered from a result cache
	end     time.Time // when the result arrived
}

func newRecorder() *recorder {
	return &recorder{cuts: make(map[string]float64)}
}

func (r *recorder) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// fail counts one failed request or failed check.
func (r *recorder) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// done records a verified request; overhead < 0 means not measured.
func (r *recorder) done(q request, o outcome, overhead time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, sample{
		request: q, ms: ms(o.latency), quantum: ms(o.quantum), cached: o.job.Cached, end: time.Now(),
	})
	if overhead >= 0 {
		r.overhead = append(r.overhead, ms(overhead))
	}
	if q.label != "" {
		r.cuts[q.label] = o.job.Result.RatioCut
	}
	if len(r.samples) == r.countAt && r.onCount != nil {
		r.onCount()
	}
}

// cut returns the ratio cut recorded for a request label.
func (r *recorder) cut(label string) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.cuts[label]
	return v, ok
}

// window returns the samples the statistics use: the first n requests
// of the workload's sequence. The same seed thus measures the same
// inputs on every run and every commit, however many more requests a
// fast run completes before its deadline.
func (r *recorder) window(n int) []sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []sample
	for _, s := range r.samples {
		if s.idx < n {
			out = append(out, s)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles mirrors Python's statistics.quantiles(xs, n=4), the
// default "exclusive" method, so spreads read the same in both.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	var out [3]float64
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// geomean is the geometric mean of the positive values of xs.
func geomean(xs []float64) float64 {
	t, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			t += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(t / float64(n))
}
