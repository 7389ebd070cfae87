package bench

import (
	"fmt"

	"igpart/internal/engine"
	"igpart/internal/hypergraph"
	"igpart/internal/obs"
)

// This file is the balanced k-way workload behind results/BENCH_kway.json:
// both engines (recursive IG-Match bisection and spectral-k vector
// partitioning) across k ∈ {2, 4, 8} on the whole benchmark suite, gated
// in CI on spanning-net regressions the same way the suite workload is
// gated on ratio cut.

// The k-way engines the workload covers.
const (
	EngineRecursive = "recursive"
	EngineSpectral  = "spectral"
)

// kwayEps is the imbalance budget ε of every k-way cell.
const kwayEps = 0.03

// kwayKs is the part-count column of the k-way workload.
var kwayKs = []int{2, 4, 8}

// kwayAlg names the k-way cell of engine at k.
func kwayAlg(engine string, k int) string { return fmt.Sprintf("%s/k=%d", engine, k) }

// kwayRuns runs both engines at every k the circuit has modules for.
func (s Suite) kwayRuns(h *hypergraph.Hypergraph, rec obs.Recorder) ([]AlgRun, error) {
	var steps []step
	for _, k := range kwayKs {
		if h.NumModules() < k {
			continue
		}
		for _, e := range [...]struct{ cell, name string }{{EngineRecursive, engine.KWay}, {EngineSpectral, engine.KWaySpectral}} {
			steps = append(steps, step{kwayAlg(e.cell, k), func(sp obs.Recorder) (AlgRun, error) {
				spec := s.spec(sp)
				spec.K, spec.Eps = k, kwayEps
				out, err := engine.Run(e.name, h, spec)
				res := out.KWay
				return AlgRun{RatioCut: res.RatioValue, KWay: &KWayCell{
					K: k, Eps: kwayEps, Cap: res.Cap,
					SpanningNets: res.SpanningNets,
					Connectivity: res.Connectivity,
					Sizes:        res.PartSizesSorted(),
				}}, err
			}})
		}
	}
	return runSteps(rec, steps)
}

// FormatKWayTable renders a k-way report as the markdown table
// EXPERIMENTS.md embeds: one row per circuit × k, both engines side by
// side.
func FormatKWayTable(r *Report) string {
	out := "| circuit | k | recursive spans | recursive λ−1 | spectral spans | spectral λ−1 |\n"
	out += "|---|---|---|---|---|---|\n"
	for _, c := range r.Circuits {
		cells := make(map[string]*KWayCell)
		for _, run := range c.Runs {
			cells[run.Alg] = run.KWay
		}
		for _, k := range kwayKs {
			rec, spec := cells[kwayAlg(EngineRecursive, k)], cells[kwayAlg(EngineSpectral, k)]
			if rec == nil || spec == nil {
				continue
			}
			out += fmt.Sprintf("| %s | %d | %d | %d | %d | %d |\n",
				c.Name, k, rec.SpanningNets, rec.Connectivity, spec.SpanningNets, spec.Connectivity)
		}
	}
	return out
}
