package bench

import (
	"igpart/internal/core"
	"igpart/internal/eigen"
	"igpart/internal/engine"
	"igpart/internal/hypergraph"
	"igpart/internal/obs"
)

// This file is the million-net-scale workload behind
// results/BENCH_scale.json: the candidate-split IG-Match pipeline
// (core.PartitionCandidates) on a large synthetic preset under both
// reorthogonalization modes.

// Scale-run algorithm names. The slash suffix distinguishes the reorth
// mode; both runs share the ordering-quality contract (equal ratio cut)
// while diverging in eigensolve wall time.
const (
	AlgScaleSelective = "IG-Scale/selective"
	AlgScaleFull      = "IG-Scale/full"
)

// scaleRuns partitions h twice — selective then full
// reorthogonalization — with the default candidate count.
func (s Suite) scaleRuns(h *hypergraph.Hypergraph, rec obs.Recorder) ([]AlgRun, error) {
	steps := make([]step, 0, 2)
	for _, run := range []struct {
		alg  string
		mode eigen.ReorthMode
	}{{AlgScaleSelective, eigen.ReorthSelective}, {AlgScaleFull, eigen.ReorthFull}} {
		steps = append(steps, step{run.alg, func(sp obs.Recorder) (AlgRun, error) {
			spec := s.spec(sp)
			spec.Reorth, spec.Candidates = run.mode, core.DefaultCandidates
			out, err := engine.Run(engine.IGMatch, h, spec)
			return bipartition(out.Metrics, err)
		}})
	}
	return runSteps(rec, steps)
}
