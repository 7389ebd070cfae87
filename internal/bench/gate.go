package bench

import (
	"fmt"
	"strings"
	"time"
)

// claim is one workload's acceptance check, read off the circuit of its
// report that carries the named runs: at least minNets nets, the fast run
// at least minSpeedup× quicker than the slow run, their ratio cuts within
// ratioTol of each other in both directions, a nonzero counter proving
// the fast path ran, and, when noWorse is set, that run's ratio cut at
// most (1+ratioTol)× that of run than.
type claim struct {
	minNets       int
	fast, slow    string
	minSpeedup    float64
	ratioTol      float64
	counter       string
	noWorse, than string
}

// claims maps every known workload to its acceptance check; the suite
// and k-way workloads make no claim of their own and are held only by
// their baseline diff.
var claims = map[string]claim{
	WorkloadSuite: {},
	WorkloadKWay:  {},
	WorkloadScale: {
		minNets: 100_000, fast: AlgScaleSelective, slow: AlgScaleFull,
		minSpeedup: 3, ratioTol: 0.01, counter: "eigen.reorth.skipped",
	},
	WorkloadPortfolio: {
		fast: AlgECOWarm, slow: AlgECOCold,
		minSpeedup: 3, ratioTol: 0.10, counter: "portfolio.warm_start",
		noWorse: AlgPortfolioRace, than: AlgPortfolioFixed,
	},
}

// Gate holds cur to its workload's claims and, when baseline is non-nil,
// diffs it cell by cell against baseline. A (circuit, run) cell regresses
// when its ratio cut — its spanning-net count for a k-way cell — exceeds
// the baseline's by more than the relative tolerance tol, or, when
// wallBudget > 0, when its wall time exceeds wallBudget× the baseline's.
// A baseline cell missing from cur also regresses: coverage loss must be
// deliberate, via a new baseline. The result describes each failure;
// empty means the gate passes.
func Gate(baseline, cur *Report, tol, wallBudget float64) []string {
	c, ok := claims[cur.Workload]
	if !ok {
		return []string{fmt.Sprintf("unknown workload %q", cur.Workload)}
	}
	fails := c.check(cur)
	if baseline == nil {
		return fails
	}
	if baseline.Workload != cur.Workload {
		return append(fails, fmt.Sprintf("workload %q does not match the baseline's %q", cur.Workload, baseline.Workload))
	}
	current := make(map[[2]string]AlgRun)
	for _, circ := range cur.Circuits {
		for _, run := range circ.Runs {
			current[[2]string{circ.Name, run.Alg}] = run
		}
	}
	for _, circ := range baseline.Circuits {
		for _, base := range circ.Runs {
			cell := circ.Name + "/" + base.Alg
			now, ok := current[[2]string{circ.Name, base.Alg}]
			if !ok || (base.KWay != nil && now.KWay == nil) {
				fails = append(fails, cell+": present in baseline but missing from current report")
				continue
			}
			if base.KWay != nil {
				if limit := float64(base.KWay.SpanningNets) * (1 + tol); float64(now.KWay.SpanningNets) > limit {
					fails = append(fails, fmt.Sprintf("%s: spanning nets %d exceed baseline %d by more than %.0f%% (limit %.6g)",
						cell, now.KWay.SpanningNets, base.KWay.SpanningNets, tol*100, limit))
				}
			} else if limit := base.RatioCut * (1 + tol); now.RatioCut > limit {
				fails = append(fails, fmt.Sprintf("%s: ratio cut %.6g exceeds baseline %.6g by more than %.0f%% (limit %.6g)",
					cell, now.RatioCut, base.RatioCut, tol*100, limit))
			}
			switch {
			case wallBudget <= 0:
			case base.WallNS <= 0:
				fails = append(fails, fmt.Sprintf("%s: baseline records no wall time to hold the %.1f× budget against", cell, wallBudget))
			case now.WallNS > int64(float64(base.WallNS)*wallBudget):
				fails = append(fails, fmt.Sprintf("%s: wall time %s exceeds the %.1f× budget over baseline %s",
					cell, time.Duration(now.WallNS), wallBudget, time.Duration(base.WallNS)))
			}
		}
	}
	return fails
}

// check returns every way r violates the claim; the empty claim holds.
func (c claim) check(r *Report) []string {
	if c.fast == "" {
		return nil
	}
	names := []string{c.fast, c.slow}
	if c.noWorse != "" {
		names = append(names, c.noWorse, c.than)
	}
	circ, runs := findRuns(r, names)
	if circ == nil {
		return []string{"no circuit carries all of " + strings.Join(names, ", ")}
	}
	var fails []string
	if circ.Nets < c.minNets {
		fails = append(fails, fmt.Sprintf("%s: %d nets is below the %d-net floor", circ.Name, circ.Nets, c.minNets))
	}
	fast, slow := runs[c.fast], runs[c.slow]
	if fast.WallNS <= 0 || slow.WallNS <= 0 {
		fails = append(fails, fmt.Sprintf("%s: non-positive wall times (%s %dns, %s %dns)",
			circ.Name, c.fast, fast.WallNS, c.slow, slow.WallNS))
	} else if speedup := float64(slow.WallNS) / float64(fast.WallNS); speedup < c.minSpeedup {
		fails = append(fails, fmt.Sprintf("%s: %s speedup %.2f× over %s is below the %.1f× floor (%s vs %s)",
			circ.Name, c.fast, speedup, c.slow, c.minSpeedup, time.Duration(fast.WallNS), time.Duration(slow.WallNS)))
	}
	if hi, lo := fast.RatioCut, slow.RatioCut; hi > lo*(1+c.ratioTol) || lo > hi*(1+c.ratioTol) {
		fails = append(fails, fmt.Sprintf("%s: ratio cuts diverge beyond %.0f%%: %s %.6g vs %s %.6g",
			circ.Name, c.ratioTol*100, c.fast, fast.RatioCut, c.slow, slow.RatioCut))
	}
	if r.Metrics.Counters[c.counter] == 0 {
		fails = append(fails, fmt.Sprintf("%s = 0: the %s run never took its fast path, so the speedup claim is vacuous", c.counter, c.fast))
	}
	if c.noWorse != "" {
		if a, b := runs[c.noWorse], runs[c.than]; a.RatioCut > b.RatioCut*(1+c.ratioTol) {
			fails = append(fails, fmt.Sprintf("%s: %s ratio cut %.6g loses to %s %.6g beyond %.0f%%",
				circ.Name, c.noWorse, a.RatioCut, c.than, b.RatioCut, c.ratioTol*100))
		}
	}
	return fails
}

// findRuns returns the first circuit of r that carries every named run,
// with its runs by name.
func findRuns(r *Report, names []string) (*CircuitReport, map[string]AlgRun) {
	for i := range r.Circuits {
		runs := make(map[string]AlgRun)
		for _, run := range r.Circuits[i].Runs {
			runs[run.Alg] = run
		}
		found := 0
		for _, name := range names {
			if _, ok := runs[name]; ok {
				found++
			}
		}
		if found == len(names) {
			return &r.Circuits[i], runs
		}
	}
	return nil, nil
}
