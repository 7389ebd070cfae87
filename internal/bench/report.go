package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"igpart/internal/hypergraph"
	"igpart/internal/netgen"
	"igpart/internal/obs"
	"igpart/internal/partition"
)

// This file produces the machine-readable run report behind
// results/BENCH_<name>.json. Every workload emits the same record: one
// run per (circuit, algorithm) cell with its quality and wall time, a
// stage span subtree per circuit, and the trace's metrics snapshot, so
// the perf trajectory of the pipeline (and each of its stages) can be
// tracked across commits by diffing reports, and one Gate holds them all.

// The report workloads Suite.Report produces.
const (
	// WorkloadSuite runs DefaultReportAlgs over the benchmark suite.
	WorkloadSuite = "suite"
	// WorkloadKWay runs both balanced k-way engines at k ∈ {2, 4, 8} over
	// the benchmark suite.
	WorkloadKWay = "kway"
	// WorkloadScale partitions the scale100k preset with the candidate
	// sweep under selective and full reorthogonalization.
	WorkloadScale = "scale"
	// WorkloadPortfolio races the portfolio against fixed IG-Match on the
	// scale10k preset, then re-partitions a small ECO delta warm and cold.
	WorkloadPortfolio = "portfolio"
)

// DefaultReportAlgs is the algorithm set of the suite workload: the
// paper's comparison column plus IG-Match itself and its multilevel
// V-cycle variant.
func DefaultReportAlgs() []string {
	return []string{AlgIGMatch, AlgMultilevel, AlgIGVote, AlgEIG1, AlgRCut, AlgIGDiam}
}

// SuiteConfig is the JSON form of the Suite knobs a report ran under.
type SuiteConfig struct {
	Scale       float64 `json:"scale"`
	RCutStarts  int     `json:"rcut_starts"`
	Seed        int64   `json:"seed"`
	Parallelism int     `json:"parallelism"`
	Levels      int     `json:"levels,omitempty"`
}

// AlgRun is one cell of a report: one algorithm's outcome on one
// circuit. Bipartitioning runs carry Metrics; a k-way cell, named
// <engine>/k=<k>, carries KWay instead, with its multiway ratio value
// in RatioCut.
type AlgRun struct {
	Alg      string             `json:"alg"`
	Metrics  *partition.Metrics `json:"metrics,omitempty"`
	WallNS   int64              `json:"wall_ns"`
	RatioCut float64            `json:"ratio_cut"`
	KWay     *KWayCell          `json:"kway,omitempty"`
}

// KWayCell is the k-way block of a balanced k-way run.
type KWayCell struct {
	K            int     `json:"k"`
	Eps          float64 `json:"eps"`
	Cap          int     `json:"cap"`
	SpanningNets int     `json:"spanning_nets"`
	Connectivity int     `json:"connectivity"`
	Sizes        []int   `json:"sizes"`
}

// CircuitReport is one circuit's slice of a run report. Stages holds the
// circuit's stage span subtree: one child per run, and under each
// IG-Match child the full pipeline breakdown (ig-build, laplacian,
// eigensolve cycles, sweep shards).
type CircuitReport struct {
	Name    string    `json:"name"`
	Modules int       `json:"modules"`
	Nets    int       `json:"nets"`
	Pins    int       `json:"pins"`
	Runs    []AlgRun  `json:"runs"`
	Stages  obs.Stage `json:"stages"`
}

// Report is the top-level BENCH_<name>.json document.
type Report struct {
	Name       string              `json:"name"`
	Workload   string              `json:"workload"`
	CreatedAt  time.Time           `json:"created_at"`
	GoVersion  string              `json:"go_version"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	Suite      SuiteConfig         `json:"suite"`
	Algorithms []string            `json:"algorithms"`
	Circuits   []CircuitReport     `json:"circuits"`
	Metrics    obs.MetricsSnapshot `json:"metrics"`
	TotalNS    int64               `json:"total_ns"`
}

// Report runs one workload (WorkloadSuite, WorkloadKWay, WorkloadScale
// or WorkloadPortfolio) under a fresh Trace and assembles its report.
func (s Suite) Report(name, workload string) (*Report, error) {
	s = s.withDefaults()
	var runs func(h *hypergraph.Hypergraph, rec obs.Recorder) ([]AlgRun, error) // one circuit's cells
	preset := ""
	switch workload {
	case WorkloadSuite:
		runs = s.suiteRuns
	case WorkloadKWay:
		runs = s.kwayRuns
	case WorkloadScale:
		runs, preset = s.scaleRuns, "scale100k"
	case WorkloadPortfolio:
		runs, preset = s.portfolioRuns, "scale10k"
	default:
		return nil, fmt.Errorf("bench: unknown workload %q", workload)
	}
	cfgs := netgen.Benchmarks
	if preset != "" {
		if s.Preset != "" {
			preset = s.Preset
		}
		gen, ok := netgen.ByName(preset)
		if !ok {
			return nil, fmt.Errorf("bench: unknown preset %q", preset)
		}
		cfgs = []netgen.Config{gen}
	}
	cfgs, hs, err := s.generate(cfgs)
	if err != nil {
		return nil, err
	}
	tr := obs.NewTrace("bench:" + name)
	rep := &Report{
		Name:       name,
		Workload:   workload,
		CreatedAt:  time.Now().UTC(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Suite: SuiteConfig{
			Scale:       s.Scale,
			RCutStarts:  s.RCutStarts,
			Seed:        s.Seed,
			Parallelism: s.Parallelism,
			Levels:      s.Levels,
		},
	}
	seen := make(map[string]bool)
	for i, h := range hs {
		csp := tr.StartSpan(cfgs[i].Name)
		cells, err := runs(h, csp)
		csp.End()
		if err != nil {
			return nil, fmt.Errorf("bench: %s report on %s: %w", workload, cfgs[i].Name, err)
		}
		for _, run := range cells {
			if !seen[run.Alg] {
				seen[run.Alg] = true
				rep.Algorithms = append(rep.Algorithms, run.Alg)
			}
		}
		rep.Circuits = append(rep.Circuits, CircuitReport{
			Name:    cfgs[i].Name,
			Modules: h.NumModules(),
			Nets:    h.NumNets(),
			Pins:    h.NumPins(),
			Runs:    cells,
		})
	}
	root := tr.Finish()
	for i := range rep.Circuits {
		rep.Circuits[i].Stages = root.Children[i]
	}
	rep.Metrics = tr.Metrics().Snapshot()
	rep.TotalNS = root.DurationNS
	return rep, nil
}

// suiteRuns runs every DefaultReportAlgs algorithm on h.
func (s Suite) suiteRuns(h *hypergraph.Hypergraph, rec obs.Recorder) ([]AlgRun, error) {
	s.Rec = rec
	var runs []AlgRun
	for _, alg := range DefaultReportAlgs() {
		met, wall, err := s.Run(alg, h)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", alg, err)
		}
		runs = append(runs, AlgRun{Alg: alg, Metrics: &met, WallNS: int64(wall), RatioCut: met.RatioCut})
	}
	return runs, nil
}

// step is one timed cell of a workload; run fills everything but the
// cell's name and wall time.
type step struct {
	alg string
	run func(sp obs.Recorder) (AlgRun, error)
}

// runSteps executes steps in order, each under its own child span of rec.
func runSteps(rec obs.Recorder, steps []step) ([]AlgRun, error) {
	runs := make([]AlgRun, 0, len(steps))
	for _, st := range steps {
		sp := rec.StartSpan(st.alg)
		t0 := time.Now()
		run, err := st.run(sp)
		wall := time.Since(t0)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", st.alg, err)
		}
		run.Alg, run.WallNS = st.alg, int64(wall)
		runs = append(runs, run)
	}
	return runs, nil
}

// bipartition is the cell of a bipartitioning run.
func bipartition(m partition.Metrics, err error) (AlgRun, error) {
	return AlgRun{Metrics: &m, RatioCut: m.RatioCut}, err
}

// WriteFile writes the report as <dir>/BENCH_<name>.json, creating the
// directory (and any parents) if missing — a fresh checkout or a wiped
// results/ must never fail the first write. It returns the path written.
func (r *Report) WriteFile(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("bench: creating report dir: %w", err)
	}
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("bench: encoding report: %w", err)
	}
	path := filepath.Join(dir, "BENCH_"+r.Name+".json")
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ReadReportFile loads a BENCH_<name>.json report from disk. Decoding is
// strict: an unknown key fails rather than leaving its field zero, where
// a gate would silently skip it.
func ReadReportFile(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: reading report: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("bench: decoding %s: %w", path, err)
	}
	return &r, nil
}
