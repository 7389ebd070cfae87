// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (and the ablations DESIGN.md calls out)
// on the synthetic benchmark suite, producing aligned text tables that
// mirror the paper's layout. See EXPERIMENTS.md for the paper-vs-measured
// record.
package bench

import (
	"fmt"
	"math"
	"time"

	"igpart/internal/eigen"
	"igpart/internal/engine"
	"igpart/internal/hypergraph"
	"igpart/internal/netgen"
	"igpart/internal/obs"
	"igpart/internal/partition"
)

// Suite controls a harness run.
type Suite struct {
	// Scale shrinks every benchmark circuit to Scale× its published size
	// (1.0 = full size). Sub-unit scales make the whole suite run in
	// seconds for tests and quick iteration.
	Scale float64
	// RCutStarts is the number of random starts for the RCut baseline
	// (the paper compares against best-of-10).
	RCutStarts int
	// Seed offsets the generator seeds, for stability studies.
	Seed int64
	// Parallelism is the IG-Match sweep shard count (0 = GOMAXPROCS,
	// 1 = serial). Results are identical for every value; only wall-clock
	// changes, which the scaling table reports.
	Parallelism int
	// Levels is the V-cycle depth for the multilevel IG-Match runs
	// (0 uses the multilevel default of 3; 1 degenerates to flat).
	Levels int
	// Reorth selects the Lanczos reorthogonalization mode for the
	// IG-Match and multilevel runs (auto/full/selective; zero value is
	// auto, which matches full below eigen.ReorthAutoCutoff).
	Reorth eigen.ReorthMode
	// MatvecWorkers is threaded to eigen.Options.MatvecWorkers for the
	// IG-Match and multilevel runs (0 = auto, 1 = serial).
	MatvecWorkers int
	// Rec, when non-nil, receives one stage span per algorithm run; the
	// IG-Match spans carry the full pipeline breakdown (IG build,
	// eigensolve, sweep shards). Run reports (report.go) record under
	// their own Trace instead.
	Rec obs.Recorder
	// Preset, when set, names the netgen benchmark that replaces the
	// circuit of the scale and portfolio workloads (scale100k and
	// scale10k), so smoke tests can run them on a small circuit.
	Preset string
}

// DefaultSuite is the full-size configuration used by cmd/experiments.
func DefaultSuite() Suite { return Suite{Scale: 1.0, RCutStarts: 10} }

func (s Suite) withDefaults() Suite {
	if s.Scale <= 0 {
		s.Scale = 1.0
	}
	if s.RCutStarts <= 0 {
		s.RCutStarts = 10
	}
	return s
}

// circuits generates the benchmark suite at the configured scale.
func (s Suite) circuits() ([]netgen.Config, []*hypergraph.Hypergraph, error) {
	return s.generate(netgen.Benchmarks)
}

// generate builds each circuit at the configured scale and seed offset.
func (s Suite) generate(base []netgen.Config) ([]netgen.Config, []*hypergraph.Hypergraph, error) {
	cfgs := make([]netgen.Config, len(base))
	hs := make([]*hypergraph.Hypergraph, len(base))
	for i, cfg := range base {
		c := cfg.Scaled(s.Scale)
		c.Seed += s.Seed
		h, err := netgen.Generate(c)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: generating %s: %w", c.Name, err)
		}
		cfgs[i] = c
		hs[i] = h
	}
	return cfgs, hs, nil
}

// spec is the engine spec the suite's runs share, recording into rec:
// the sweep parallelism, the eigensolver knobs, the V-cycle depth and
// the RCut starts. Every engine reads the ones in its read set.
func (s Suite) spec(rec obs.Recorder) engine.Spec {
	return engine.Spec{Pipeline: engine.Pipeline{
		Parallelism: s.Parallelism, Reorth: s.Reorth, MatvecParallelism: s.MatvecWorkers, Rec: rec,
	}, Levels: s.Levels, Starts: s.RCutStarts}
}

// Algorithm names used across tables: the engine labels.
const (
	AlgIGMatch    = "IG-Match"
	AlgMultilevel = "ML-IGMatch"
	AlgIGVote     = "IG-Vote"
	AlgEIG1       = "EIG1"
	AlgRCut       = "RCut"
	AlgIGDiam     = "IG-Diam"
)

// Run executes the engine labelled alg on a circuit, returning its
// metrics and wall-clock time.
func (s Suite) Run(alg string, h *hypergraph.Hypergraph) (partition.Metrics, time.Duration, error) {
	s = s.withDefaults()
	e, ok := engine.ByLabel(alg)
	if !ok {
		return partition.Metrics{}, 0, fmt.Errorf("bench: unknown algorithm %q", alg)
	}
	sp := obs.OrNop(s.Rec).StartSpan(alg)
	defer sp.End()
	spec := s.spec(sp)
	if alg == AlgRCut {
		// The RCut starts are seeded; the eigensolves keep seed 0.
		spec.Seed = 1 + s.Seed
	}
	t0 := time.Now()
	out, err := e.Run(h, spec)
	return out.Metrics, time.Since(t0), err
}

// ImprovementPct is the paper's "Percent improvement" column: the relative
// ratio-cut reduction of `ours` versus `base`, in percent (negative when
// ours is worse). Matches the paper's rounding convention of whole percent.
func ImprovementPct(base, ours float64) float64 {
	if base == 0 {
		return 0
	}
	return (1 - ours/base) * 100
}

// GeomImprovement aggregates per-row improvements the way the paper does:
// a plain average of the per-benchmark percent improvements.
func GeomImprovement(rows []CompareRow) float64 {
	if len(rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.Improvement
	}
	return sum / float64(len(rows))
}

// CompareRow is one line of a Table 2/3-style comparison.
type CompareRow struct {
	Name        string
	Elements    int
	Base        partition.Metrics
	BaseTime    time.Duration
	Ours        partition.Metrics
	OursTime    time.Duration
	Improvement float64 // percent, by ratio cut
}

// Compare runs two algorithms across the whole suite.
func (s Suite) Compare(baseAlg, oursAlg string) ([]CompareRow, error) {
	s = s.withDefaults()
	cfgs, hs, err := s.circuits()
	if err != nil {
		return nil, err
	}
	rows := make([]CompareRow, 0, len(cfgs))
	for i, h := range hs {
		base, bt, err := s.Run(baseAlg, h)
		if err != nil {
			return nil, fmt.Errorf("bench: %s on %s: %w", baseAlg, cfgs[i].Name, err)
		}
		ours, ot, err := s.Run(oursAlg, h)
		if err != nil {
			return nil, fmt.Errorf("bench: %s on %s: %w", oursAlg, cfgs[i].Name, err)
		}
		rows = append(rows, CompareRow{
			Name:        cfgs[i].Name,
			Elements:    h.NumModules(),
			Base:        base,
			BaseTime:    bt,
			Ours:        ours,
			OursTime:    ot,
			Improvement: ImprovementPct(base.RatioCut, ours.RatioCut),
		})
	}
	return rows, nil
}

// ratioStr renders a ratio-cut value in the paper's ×10⁻⁵ style.
func ratioStr(r float64) string {
	if math.IsInf(r, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.2fe-5", r*1e5)
}
