package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"igpart/internal/obs"
)

// TestReportStagesAndCounters runs a small suite report and cross-checks
// the embedded stage tree against the run outcomes: every circuit
// appears, every algorithm has both a run and a stage span, and the
// IG-Match subtree's splits counter equals nets−1 for its circuit.
func TestReportStagesAndCounters(t *testing.T) {
	s := Suite{Scale: 0.1, RCutStarts: 2}
	rep, err := s.Report("test", WorkloadSuite)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workload != WorkloadSuite || len(rep.Circuits) == 0 {
		t.Fatalf("workload %q with %d circuits", rep.Workload, len(rep.Circuits))
	}
	if rep.TotalNS <= 0 {
		t.Errorf("total duration %d", rep.TotalNS)
	}
	algs := DefaultReportAlgs()
	if strings.Join(rep.Algorithms, ",") != strings.Join(algs, ",") {
		t.Errorf("algorithms %v, want %v", rep.Algorithms, algs)
	}
	for _, cr := range rep.Circuits {
		if len(cr.Runs) != len(algs) {
			t.Fatalf("%s: %d runs, want %d", cr.Name, len(cr.Runs), len(algs))
		}
		if cr.Stages.Name != cr.Name {
			t.Errorf("stage root %q for circuit %q", cr.Stages.Name, cr.Name)
		}
		ig := cr.Stages.Find(AlgIGMatch)
		if ig == nil {
			t.Fatalf("%s: no IG-Match stage span", cr.Name)
		}
		if got := ig.Sum("splits"); got != int64(cr.Nets-1) {
			t.Errorf("%s: IG-Match splits = %d, want %d", cr.Name, got, cr.Nets-1)
		}
		for _, run := range cr.Runs {
			if cr.Stages.Find(run.Alg) == nil {
				t.Errorf("%s: no %s stage span", cr.Name, run.Alg)
			}
			if run.Metrics == nil || run.RatioCut != run.Metrics.RatioCut || run.KWay != nil {
				t.Errorf("%s/%s: not a bipartition cell: %+v", cr.Name, run.Alg, run)
			}
		}
	}
	if rep.Metrics.Counters["sweep.splits"] == 0 {
		t.Error("registry snapshot missing sweep.splits")
	}
}

// TestWriteFileCreatesMissingDir is the regression test for report (and
// CSV) output into a results directory that does not exist yet: WriteFile
// must create it rather than fail the first write of a fresh checkout.
func TestWriteFileCreatesMissingDir(t *testing.T) {
	rep := &Report{Name: "mkdir-check", Workload: WorkloadSuite}
	dir := filepath.Join(t.TempDir(), "deep", "results")
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("precondition: %s should not exist", dir)
	}
	path, err := rep.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "BENCH_mkdir-check.json"); path != want {
		t.Errorf("path %q, want %q", path, want)
	}
	back, err := ReadReportFile(path)
	if err != nil {
		t.Fatalf("written report does not read back: %v", err)
	}
	if back.Name != "mkdir-check" || back.Workload != WorkloadSuite {
		t.Errorf("round-tripped name %q, workload %q", back.Name, back.Workload)
	}
}

// TestReadReportFileStrict pins strict decoding: a misspelled key must
// fail the read instead of leaving its field zero, where the wall budget
// would skip the cell.
func TestReadReportFileStrict(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_typo.json")
	raw := `{"name": "typo", "workload": "suite", "circuits": [{"name": "c1", "runs": [{"alg": "IG-Match", "wal_ns": 5}]}]}`
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReportFile(path); err == nil || !strings.Contains(err.Error(), "wal_ns") {
		t.Fatalf("unknown key accepted: %v", err)
	}
}

// TestCheckedInReports holds every checked-in results/BENCH_*.json to
// the gate: each decodes strictly, names a known workload, passes against
// itself at zero tolerance with every cell's wall time recorded, and the
// scale and portfolio reports pass their workload claims.
func TestCheckedInReports(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "results", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, path := range paths {
		rep, err := ReadReportFile(path)
		if err != nil {
			t.Fatal(err)
		}
		seen[rep.Workload] = true
		if fails := Gate(rep, rep, 0, 1); len(fails) > 0 {
			t.Errorf("%s fails the gate against itself:\n  %s", path, strings.Join(fails, "\n  "))
		}
	}
	for w := range claims {
		if !seen[w] {
			t.Errorf("no checked-in report covers the %s workload", w)
		}
	}
}

// cells fabricates a report of the given runs on one circuit.
func cells(workload, circuit string, nets int, counters map[string]int64, runs ...AlgRun) *Report {
	return &Report{
		Name:     workload,
		Workload: workload,
		Circuits: []CircuitReport{{Name: circuit, Nets: nets, Runs: runs}},
		Metrics:  obs.MetricsSnapshot{Counters: counters},
	}
}

// suiteRatios fabricates a suite report on circuit c1 from per-algorithm
// ratio cuts; algorithms absent from the map are dropped.
func suiteRatios(ratios map[string]float64) *Report {
	var runs []AlgRun
	for _, alg := range []string{AlgIGMatch, AlgMultilevel, AlgRCut} {
		if r, ok := ratios[alg]; ok {
			runs = append(runs, AlgRun{Alg: alg, RatioCut: r})
		}
	}
	return cells(WorkloadSuite, "c1", 0, nil, runs...)
}

// syntheticScale fabricates a report shaped like results/BENCH_scale.json.
func syntheticScale(nets int, selNS, fullNS int64, selRatio, fullRatio float64, skipped int64) *Report {
	return cells(WorkloadScale, "scale100k", nets, map[string]int64{"eigen.reorth.skipped": skipped},
		AlgRun{Alg: AlgScaleSelective, WallNS: selNS, RatioCut: selRatio},
		AlgRun{Alg: AlgScaleFull, WallNS: fullNS, RatioCut: fullRatio})
}

// syntheticPortfolio fabricates a report shaped like
// results/BENCH_portfolio.json.
func syntheticPortfolio(raceRatio, fixedRatio float64, warmNS, coldNS int64, warmRatio, coldRatio float64, warmStarts int64) *Report {
	return cells(WorkloadPortfolio, "scale10k", 10_000, map[string]int64{"portfolio.warm_start": warmStarts},
		AlgRun{Alg: AlgPortfolioRace, WallNS: 3e9, RatioCut: raceRatio},
		AlgRun{Alg: AlgPortfolioFixed, WallNS: 9e9, RatioCut: fixedRatio},
		AlgRun{Alg: AlgECOWarm, WallNS: warmNS, RatioCut: warmRatio},
		AlgRun{Alg: AlgECOCold, WallNS: coldNS, RatioCut: coldRatio})
}

// syntheticKWay fabricates a k-way report from per-cell spanning-net
// counts keyed by <engine>/k=<k>; cells absent from the map are dropped.
func syntheticKWay(spans map[string]int) *Report {
	rep := &Report{Name: "kway", Workload: WorkloadKWay, Circuits: []CircuitReport{{Name: "c1"}}}
	for _, k := range kwayKs {
		for _, engine := range []string{EngineRecursive, EngineSpectral} {
			if n, ok := spans[kwayAlg(engine, k)]; ok {
				rep.Circuits[0].Runs = append(rep.Circuits[0].Runs,
					AlgRun{Alg: kwayAlg(engine, k), KWay: &KWayCell{K: k, SpanningNets: n}})
			}
		}
	}
	return rep
}

// relabel returns r as a report of another workload, so a baseline-diff
// case is not also held to r's workload claims.
func relabel(r *Report, workload string) *Report {
	r.Workload = workload
	return r
}

// gateCase is one input to Gate: want is "" for a pass, else the one
// failure's cause.
type gateCase struct {
	name      string
	base, cur *Report
	tol, wall float64
	want      string
}

// checkGate runs every case through Gate and checks its verdict.
func checkGate(t *testing.T, cases []gateCase) {
	t.Helper()
	for _, tc := range cases {
		fails := Gate(tc.base, tc.cur, tc.tol, tc.wall)
		switch {
		case tc.want == "" && len(fails) != 0:
			t.Errorf("%s: passing input flagged: %v", tc.name, fails)
		case tc.want != "" && (len(fails) != 1 || !strings.Contains(fails[0], tc.want)):
			t.Errorf("%s: failures %q, want exactly one mentioning %q", tc.name, fails, tc.want)
		}
	}
}

// TestCompareReports pins the gate's suite baseline diff: a result within
// tolerance passes, a ratio regression and a dropped algorithm each fail
// once, and a baseline read back from disk passes against itself.
func TestCompareReports(t *testing.T) {
	suiteBase := suiteRatios(map[string]float64{AlgIGMatch: 1.0, AlgMultilevel: 2.0, AlgRCut: 3.0})
	path, err := suiteBase.WriteFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkGate(t, []gateCase{
		{"suite in tolerance", suiteBase, suiteRatios(map[string]float64{AlgIGMatch: 1.05, AlgMultilevel: 1.5, AlgRCut: 3.0}), 0.10, 0, ""},
		{"suite ratio regression", suiteBase, suiteRatios(map[string]float64{AlgIGMatch: 1.2, AlgMultilevel: 2.0, AlgRCut: 3.0}), 0.10, 0, "c1/IG-Match: ratio cut"},
		{"suite dropped algorithm", suiteBase, suiteRatios(map[string]float64{AlgIGMatch: 1.0, AlgMultilevel: 2.0}), 0.10, 0, "c1/RCut: present in baseline but missing"},
		{"suite self after disk round trip", loaded, suiteBase, 0.10, 0, ""},
	})
}

// TestCompareReportsWithBudget pins the gate's optional wall budget and
// that the ratio diff still applies with the budget off.
func TestCompareReportsWithBudget(t *testing.T) {
	scaleBase := relabel(syntheticScale(100_000, 1e9, 4e9, 2e-5, 2e-5, 1), WorkloadSuite)
	// Same ratios, selective 2.5x slower than its baseline cell.
	scaleSlow := relabel(syntheticScale(100_000, 25e8, 4e9, 2e-5, 2e-5, 1), WorkloadSuite)
	checkGate(t, []gateCase{
		{"within 3x wall budget", scaleBase, scaleSlow, 0.10, 3.0, ""},
		{"over 2x wall budget", scaleBase, scaleSlow, 0.10, 2.0, "IG-Scale/selective: wall time 2.5s exceeds the 2.0× budget"},
		{"wall budget off", scaleBase, scaleSlow, 0.10, 0, ""},
		{"ratio gate under budget off", scaleBase, relabel(syntheticScale(100_000, 1e9, 4e9, 3e-5, 2e-5, 1), WorkloadSuite), 0.10, 0, "IG-Scale/selective: ratio cut"},
		{"baseline without wall time", suiteRatios(map[string]float64{AlgIGMatch: 1.0}), suiteRatios(map[string]float64{AlgIGMatch: 1.0}), 0.10, 5.0, "c1/IG-Match: baseline records no wall time"},
	})
}

// TestVerifyScaleReportGate pins the scale workload's claims.
func TestVerifyScaleReportGate(t *testing.T) {
	checkGate(t, []gateCase{
		{"scale clean", nil, syntheticScale(100_000, 1e9, 4e9, 2.00e-5, 2.01e-5, 1234), 0, 0, ""},
		{"scale too small", nil, syntheticScale(50_000, 1e9, 4e9, 2e-5, 2e-5, 1), 0, 0, "50000 nets is below the 100000-net floor"},
		{"scale too slow", nil, syntheticScale(100_000, 2e9, 4e9, 2e-5, 2e-5, 1), 0, 0, "IG-Scale/selective speedup 2.00×"},
		{"scale ratio drift", nil, syntheticScale(100_000, 1e9, 4e9, 2.1e-5, 2.0e-5, 1), 0, 0, "ratio cuts diverge beyond 1%"},
		{"scale ratio drift, full worse", nil, syntheticScale(100_000, 1e9, 4e9, 2.0e-5, 2.1e-5, 1), 0, 0, "ratio cuts diverge beyond 1%"},
		{"scale no skips", nil, syntheticScale(100_000, 1e9, 4e9, 2e-5, 2e-5, 0), 0, 0, "eigen.reorth.skipped = 0"},
		{"scale missing runs", nil, &Report{Name: "scale", Workload: WorkloadScale}, 0, 0, "no circuit"},
	})
}

// TestVerifyPortfolioReportGate pins the portfolio workload's claims.
func TestVerifyPortfolioReportGate(t *testing.T) {
	checkGate(t, []gateCase{
		{"portfolio clean", nil, syntheticPortfolio(2e-5, 2e-5, 1e9, 4e9, 2.00e-5, 2.01e-5, 1), 0, 0, ""},
		{"portfolio warm too slow", nil, syntheticPortfolio(2e-5, 2e-5, 2e9, 4e9, 2e-5, 2e-5, 1), 0, 0, "ECO/warm speedup 2.00×"},
		{"portfolio eco ratio drift", nil, syntheticPortfolio(2e-5, 2e-5, 1e9, 4e9, 2.3e-5, 2.0e-5, 1), 0, 0, "ratio cuts diverge beyond 10%"},
		{"portfolio no warm starts", nil, syntheticPortfolio(2e-5, 2e-5, 1e9, 4e9, 2e-5, 2e-5, 0), 0, 0, "portfolio.warm_start = 0"},
		{"portfolio race loses", nil, syntheticPortfolio(2.3e-5, 2.0e-5, 1e9, 4e9, 2e-5, 2e-5, 1), 0, 0, "Portfolio/race ratio cut 2.3e-05 loses to Portfolio/igmatch-fixed"},
		{"portfolio missing runs", nil, &Report{Name: "portfolio", Workload: WorkloadPortfolio}, 0, 0, "no circuit"},
	})
}

// TestGate pins the gate's k-way baseline diff on spanning nets and its
// workload checks.
func TestGate(t *testing.T) {
	suiteBase := suiteRatios(map[string]float64{AlgIGMatch: 1.0, AlgMultilevel: 2.0, AlgRCut: 3.0})
	kwayBase := syntheticKWay(map[string]int{"recursive/k=2": 100, "spectral/k=2": 120, "recursive/k=4": 200})
	checkGate(t, []gateCase{
		{"kway in tolerance", kwayBase, syntheticKWay(map[string]int{"recursive/k=2": 110, "spectral/k=2": 90, "recursive/k=4": 200}), 0.10, 0, ""},
		{"kway 11% over baseline", kwayBase, syntheticKWay(map[string]int{"recursive/k=2": 111, "spectral/k=2": 120, "recursive/k=4": 200}), 0.10, 0, "c1/recursive/k=2: spanning nets 111 exceed baseline 100"},
		{"kway dropped cell", kwayBase, syntheticKWay(map[string]int{"recursive/k=2": 100, "spectral/k=2": 120}), 0.10, 0, "c1/recursive/k=4: present in baseline but missing"},
		{"workload mismatch", suiteBase, relabel(suiteRatios(map[string]float64{AlgIGMatch: 1.0}), WorkloadKWay), 0.10, 0, `workload "kway" does not match`},
		{"unknown workload", nil, relabel(suiteRatios(nil), "nightly"), 0.10, 0, `unknown workload "nightly"`},
	})
}

// TestMultilevelTable exercises the V-cycle comparison harness at a tiny
// scale: every row must be feasible and the ML quality within the bench
// gate's tolerance band of flat (the acceptance envelope).
func TestMultilevelTable(t *testing.T) {
	s := Suite{Scale: 0.12, Levels: 3}
	rows, err := s.MultilevelTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.Flat.SizeU == 0 || r.ML.SizeU == 0 {
			t.Fatalf("%s: infeasible row %+v", r.Name, r)
		}
		if r.Levels < 1 || r.CoarsestNets < 2 {
			t.Fatalf("%s: implausible hierarchy %+v", r.Name, r)
		}
	}
}
