package bench

import (
	"fmt"

	"igpart/internal/core"
	"igpart/internal/hypergraph"
	"igpart/internal/obs"
	"igpart/internal/portfolio"
)

// This file is the portfolio/ECO workload behind results/BENCH_portfolio.json:
// one circuit, four rows. The first pair races the adaptive portfolio
// against a fixed IG-Match solve (same seed, no deadline and Accept=0 so
// the winner is the deterministic best-of-lineup, not a timing race); the
// second pair re-partitions after a small ECO delta warm (WarmStart from
// the cached net ordering) and cold (full IG-Match on the edited
// netlist), which is the incremental-ECO speedup claim in measurable form.

// Portfolio-report row names.
const (
	AlgPortfolioRace  = "Portfolio/race"
	AlgPortfolioFixed = "Portfolio/igmatch-fixed"
	AlgECOWarm        = "ECO/warm"
	AlgECOCold        = "ECO/cold"
)

// portfolioRuns measures the four rows on h: portfolio race, fixed
// IG-Match, warm ECO re-partition, cold ECO re-solve. The ECO rows run on
// h with its last 1% of nets (at least 5) removed, so their ratio cuts are
// directly comparable to each other but not to the first pair.
func (s Suite) portfolioRuns(h *hypergraph.Hypergraph, rec obs.Recorder) ([]AlgRun, error) {
	touched := max(h.NumNets()/100, 5)
	delta := portfolio.Delta{RemoveNets: make([]int, touched)}
	for i := range delta.RemoveNets {
		delta.RemoveNets[i] = h.NumNets() - touched + i
	}
	edited, _ := delta.Apply(h)
	eo := s.eigenOpts()
	eo.Seed = s.Seed
	opts := func(sp obs.Recorder) core.Options {
		return core.Options{Parallelism: s.Parallelism, Eigen: eo, Rec: sp}
	}
	var base core.Result // the fixed row, warm-start base for the ECO rows
	return runSteps(rec, []step{
		{AlgPortfolioRace, func(sp obs.Recorder) (AlgRun, error) {
			race, err := portfolio.Race(h, portfolio.Options{Parallelism: s.Parallelism, Seed: s.Seed, Rec: sp})
			sp.Metrics().Gauge("portfolio.report.winner_is_igmatch").Set(b2f(race.Winner == portfolio.AlgIGMatch))
			return bipartition(race.Metrics, err)
		}},
		{AlgPortfolioFixed, func(sp obs.Recorder) (AlgRun, error) {
			var err error
			base, err = core.Partition(h, opts(sp))
			return bipartition(base.Metrics, err)
		}},
		{AlgECOWarm, func(sp obs.Recorder) (AlgRun, error) {
			warm, err := portfolio.WarmStart(h, base.NetOrder, base.BestRank, delta, portfolio.WarmOptions{Core: opts(sp)})
			if err == nil && warm.Cold {
				err = fmt.Errorf("%d-net delta fell back to a cold solve", touched)
			}
			return bipartition(warm.Metrics, err)
		}},
		{AlgECOCold, func(sp obs.Recorder) (AlgRun, error) {
			cold, err := core.Partition(edited, opts(sp))
			return bipartition(cold.Metrics, err)
		}},
	})
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
