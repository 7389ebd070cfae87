package bench

import "testing"

// TestPortfolioReportSmoke runs the real portfolio workload on a small
// preset: all four rows complete, the ECO delta warm-starts, and the
// warm-start counter lands in the report's metrics snapshot (the 3x
// speedup claim itself is only meaningful at the checked-in report's
// scale).
func TestPortfolioReportSmoke(t *testing.T) {
	rep, err := Suite{Preset: "Prim1"}.Report("portfolio-smoke", WorkloadPortfolio)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	algs := []string{AlgPortfolioRace, AlgPortfolioFixed, AlgECOWarm, AlgECOCold}
	c, runs := findRuns(rep, algs)
	if c == nil {
		t.Fatal("report lacks the four portfolio/ECO rows")
	}
	for _, alg := range algs {
		run := runs[alg]
		if run.WallNS <= 0 {
			t.Errorf("%s: wall time not recorded", alg)
		}
		if run.Metrics.SizeU <= 0 || run.Metrics.SizeW <= 0 {
			t.Errorf("%s: degenerate bipartition %d:%d", alg, run.Metrics.SizeU, run.Metrics.SizeW)
		}
	}
	if rep.Metrics.Counters["portfolio.warm_start"] != 1 {
		t.Fatalf("warm_start counter = %d, want 1 (counters %v)",
			rep.Metrics.Counters["portfolio.warm_start"], rep.Metrics.Counters)
	}
	// Portfolio's winner is the best of a lineup that includes IG-Match,
	// so with Accept=0 it can never be worse than the fixed row.
	if runs[AlgPortfolioRace].RatioCut > runs[AlgPortfolioFixed].RatioCut {
		t.Fatalf("portfolio ratio %.9g worse than fixed IG-Match %.9g",
			runs[AlgPortfolioRace].RatioCut, runs[AlgPortfolioFixed].RatioCut)
	}
}
