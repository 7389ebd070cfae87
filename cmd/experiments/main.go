// Command experiments regenerates the paper's tables and the DESIGN.md
// ablations on the synthetic benchmark suite, and writes and gates the
// machine-readable run reports behind results/BENCH_*.json.
//
// Usage:
//
//	experiments                    # everything, full size
//	experiments -table 2           # one table: 1, 2, 3, eig1, igdiam,
//	                               # sparsity, timing, stability, weights,
//	                               # netmodel, threshold, recursive, refine,
//	                               # cluster, multilevel, taxonomy, ordering,
//	                               # lanczos, scaling, trace
//	experiments -scale 0.25        # smaller circuits for a quick pass
//	experiments -csv results/      # also write machine-readable CSVs
//	experiments -trace -table 2    # per-stage timing tree after the tables
//	experiments -report nightly    # write results/BENCH_nightly.json (the
//	                               # suite workload) and gate it
//	experiments -report ci -scale 0.25 -p 1 -baseline results/BENCH_baseline.json
//	                               # CI bench-sanity: fail on ratio-cut
//	                               # regressions beyond -tolerance
//	experiments -report kway -workload kway -scale 0.25 -p 1
//	                               # both balanced k-way engines at
//	                               # k in {2,4,8}; -baseline diffs
//	                               # spanning nets
//	experiments -report scale -workload scale
//	                               # million-net harness: scale100k under
//	                               # selective and full reorth, gated on
//	                               # ≥100k nets and a ≥3× selective speedup
//	                               # at equal ratio cut
//	experiments -report portfolio -workload portfolio
//	                               # portfolio/ECO harness on scale10k:
//	                               # race vs fixed IG-Match, warm vs cold
//	                               # ECO re-solve, gated on a ≥3× warm
//	                               # speedup at matching ratio cut
//	experiments -gate results/BENCH_scale.json
//	                               # gate an existing report against its
//	                               # workload's claims (and -baseline)
//
// -trace, -metrics and -cpuprofile apply to every mode; on a report they
// print the report's own stage tree and metrics snapshot.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"igpart/internal/bench"
	"igpart/internal/eigen"
	"igpart/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		table   = fs.String("table", "all", "which table to regenerate")
		scale   = fs.Float64("scale", 1.0, "benchmark scale factor (also shrinks the scale and portfolio presets)")
		starts  = fs.Int("starts", 10, "RCut random starts")
		seeds   = fs.Int("seeds", 5, "seeds for the stability table")
		par     = fs.Int("p", 0, "IG-Match sweep parallelism (0 = GOMAXPROCS, 1 = serial; results identical)")
		levels  = fs.Int("levels", 0, "multilevel V-cycle depth (0 = package default, 1 = flat)")
		csvDir  = fs.String("csv", "", "also write machine-readable CSVs into this directory")
		trace   = fs.Bool("trace", false, "print the per-stage timing tree after the run")
		metrics = fs.Bool("metrics", false, "print the run's metrics registry (counters/gauges/timers)")
		cpuProf = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		reorth  = fs.String("reorth", "", "Lanczos reorthogonalization mode: auto (default), full, selective")
		matvecP = fs.Int("matvec-p", 0, "eigensolver matvec workers (0 = auto, 1 = serial)")

		report     = fs.String("report", "", "run -workload, write it as BENCH_<name>.json instead of tables, and gate it")
		workload   = fs.String("workload", bench.WorkloadSuite, "report workload: suite, kway, scale or portfolio")
		resultsDir = fs.String("results", "results", "directory for -report output")
		baseline   = fs.String("baseline", "", "also diff the gated report against this BENCH_*.json, cell by cell")
		tolerance  = fs.Float64("tolerance", 0.10, "relative tolerance on each cell's ratio cut (spanning nets for k-way) in -baseline diffs")
		wallBudget = fs.Float64("wall-budget", 0, "in -baseline diffs, fail a cell slower than this factor times its baseline wall time (0 = off)")
		gate       = fs.String("gate", "", "gate this existing BENCH_*.json against its workload's claims (and -baseline) instead of running")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	reorthMode, err := eigen.ParseReorthMode(*reorth)
	if err != nil {
		return err
	}
	if *cpuProf != "" {
		f, ferr := os.Create(*cpuProf)
		if ferr != nil {
			return ferr
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		if err = pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	s := bench.Suite{
		Scale: *scale, RCutStarts: *starts, Parallelism: *par, Levels: *levels,
		Reorth: reorthMode, MatvecWorkers: *matvecP,
	}

	if *report != "" || *gate != "" {
		var rep *bench.Report
		label := *gate
		if *gate != "" {
			rep, err = bench.ReadReportFile(*gate)
		} else if rep, err = s.Report(*report, *workload); err == nil {
			if label, err = rep.WriteFile(*resultsDir); err == nil {
				printSummary(stdout, label, rep)
			}
		}
		if err != nil {
			return err
		}
		if *trace {
			root := obs.Stage{Name: "bench:" + rep.Name, DurationNS: rep.TotalNS}
			for _, c := range rep.Circuits {
				root.Children = append(root.Children, c.Stages)
			}
			fmt.Fprint(stdout, obs.FormatTree(root))
		}
		if *metrics {
			fmt.Fprint(stdout, rep.Metrics.String())
		}
		var base *bench.Report
		if *baseline != "" {
			if base, err = bench.ReadReportFile(*baseline); err != nil {
				return err
			}
		}
		if fails := bench.Gate(base, rep, *tolerance, *wallBudget); len(fails) > 0 {
			return fmt.Errorf("%s fails the %s gate:\n   %s", label, rep.Workload, strings.Join(fails, "\n   "))
		}
		fmt.Fprintf(stdout, "gate: %s passes (%s workload", label, rep.Workload)
		if base != nil {
			fmt.Fprintf(stdout, ", vs %s at tolerance %.0f%%", *baseline, *tolerance*100)
			if *wallBudget > 0 {
				fmt.Fprintf(stdout, " and a %.1fx wall budget", *wallBudget)
			}
		}
		fmt.Fprintln(stdout, ")")
		return nil
	}

	var tr *obs.Trace
	if *trace || *metrics {
		tr = obs.NewTrace("experiments")
		s.Rec = tr
	}
	defer func() {
		if tr == nil {
			return
		}
		tr.End()
		if *trace {
			fmt.Fprint(stdout, tr.String())
		}
		if *metrics {
			fmt.Fprint(stdout, tr.Metrics().Snapshot().String())
		}
	}()

	var tableErr error // the first table or CSV failure; later tables are skipped
	writeCSV := func(name string, emit func(w *os.File) error) {
		if *csvDir == "" || tableErr != nil {
			return
		}
		if err := writeCSVFile(*csvDir, name, emit); err != nil {
			tableErr = fmt.Errorf("csv %s: %w", name, err)
		}
	}
	emit := func(name string, f func() (string, error)) {
		if tableErr != nil || (*table != "all" && *table != name) {
			return
		}
		out, err := f()
		switch {
		case err != nil:
			tableErr = fmt.Errorf("table %s: %w", name, err)
		case tableErr == nil:
			fmt.Fprintln(stdout, out)
		}
	}

	emit("1", func() (string, error) {
		r, err := s.Table1()
		if err != nil {
			return "", err
		}
		writeCSV("table1.csv", func(w *os.File) error {
			return bench.WriteCutStatsCSV(w, r.Rows)
		})
		out := bench.FormatTable1(r)
		out += fmt.Sprintf("non-monotone cut fraction (rows with ≥5 nets): %v\n",
			bench.NonMonotone(r.Rows, 5))
		return out, nil
	})
	emit("2", func() (string, error) {
		rows, err := s.Table2()
		if err != nil {
			return "", err
		}
		writeCSV("table2.csv", func(w *os.File) error {
			return bench.WriteCompareCSV(w, "rcut", "igmatch", rows)
		})
		return bench.FormatCompare("Table 2: IG-Match vs RCut (paper: 28.8% avg)", "RCut", "IG-Match", rows), nil
	})
	emit("3", func() (string, error) {
		rows, err := s.Table3()
		if err != nil {
			return "", err
		}
		writeCSV("table3.csv", func(w *os.File) error {
			return bench.WriteCompareCSV(w, "igvote", "igmatch", rows)
		})
		return bench.FormatCompare("Table 3: IG-Match vs IG-Vote (paper: 7% avg, uniform domination)", "IG-Vote", "IG-Match", rows), nil
	})
	emit("eig1", func() (string, error) {
		rows, err := s.TableEIG1()
		if err != nil {
			return "", err
		}
		return bench.FormatCompare("Section 4: IG-Match vs EIG1 (paper: 22% avg)", "EIG1", "IG-Match", rows), nil
	})
	emit("igdiam", func() (string, error) {
		rows, err := s.TableIGDiam()
		if err != nil {
			return "", err
		}
		return bench.FormatCompare("Prior IG work: IG-Match vs diameter heuristic (Kahng'89 style)", "IG-Diam", "IG-Match", rows), nil
	})
	emit("sparsity", func() (string, error) {
		rows, err := s.SparsityTable()
		if err != nil {
			return "", err
		}
		return bench.FormatSparsity(rows), nil
	})
	emit("timing", func() (string, error) {
		rows, err := s.TimingTable()
		if err != nil {
			return "", err
		}
		return bench.FormatTiming(rows, *starts), nil
	})
	emit("stability", func() (string, error) {
		rows, err := s.StabilityTable(*seeds)
		if err != nil {
			return "", err
		}
		return bench.FormatStability(rows), nil
	})
	emit("weights", func() (string, error) {
		rows, err := s.WeightSchemeTable()
		if err != nil {
			return "", err
		}
		return bench.FormatWeightSchemes(rows), nil
	})
	emit("netmodel", func() (string, error) {
		rows, err := s.NetModelTable()
		if err != nil {
			return "", err
		}
		return bench.FormatNetModel(rows), nil
	})
	emit("threshold", func() (string, error) {
		rows, err := s.ThresholdTable(nil)
		if err != nil {
			return "", err
		}
		return bench.FormatThreshold(rows), nil
	})
	emit("recursive", func() (string, error) {
		rows, err := s.RecursiveTable()
		if err != nil {
			return "", err
		}
		return bench.FormatRecursive(rows), nil
	})
	emit("refine", func() (string, error) {
		rows, err := s.RefineTable()
		if err != nil {
			return "", err
		}
		return bench.FormatRefine(rows), nil
	})
	emit("cluster", func() (string, error) {
		rows, err := s.ClusterTable()
		if err != nil {
			return "", err
		}
		return bench.FormatCluster(rows), nil
	})
	emit("multilevel", func() (string, error) {
		rows, err := s.MultilevelTable()
		if err != nil {
			return "", err
		}
		writeCSV("multilevel.csv", func(w *os.File) error {
			return bench.WriteMultilevelCSV(w, rows)
		})
		return bench.FormatMultilevel(rows), nil
	})
	emit("taxonomy", func() (string, error) {
		rows, err := s.TaxonomyTable()
		if err != nil {
			return "", err
		}
		return bench.FormatTaxonomy(rows), nil
	})
	emit("ordering", func() (string, error) {
		rows, err := s.OrderingTable(3)
		if err != nil {
			return "", err
		}
		return bench.FormatOrdering(rows), nil
	})
	emit("lanczos", func() (string, error) {
		rows, err := s.LanczosTable()
		if err != nil {
			return "", err
		}
		return bench.FormatLanczos(rows), nil
	})
	emit("scaling", func() (string, error) {
		rows, err := s.ScalingTable(nil)
		if err != nil {
			return "", err
		}
		return bench.FormatScaling(rows), nil
	})
	emit("trace", func() (string, error) {
		trace, err := s.SweepTrace("Prim2")
		if err != nil {
			return "", err
		}
		writeCSV("trace_prim2.csv", func(w *os.File) error {
			return bench.WriteTraceCSV(w, trace)
		})
		return fmt.Sprintf("sweep trace: %d splits recorded (use -csv to export)", len(trace)), nil
	})
	return tableErr
}

// printSummary lists a fresh report's cells: the k-way table, or one
// line per bipartitioning run.
func printSummary(stdout io.Writer, path string, rep *bench.Report) {
	fmt.Fprintf(stdout, "wrote %s (%d circuits × %d runs)\n", path, len(rep.Circuits), len(rep.Algorithms))
	if rep.Workload == bench.WorkloadKWay {
		fmt.Fprint(stdout, bench.FormatKWayTable(rep))
		return
	}
	for _, c := range rep.Circuits {
		for _, run := range c.Runs {
			fmt.Fprintf(stdout, "  %-10s %-24s wall=%-12s ratio=%.6g cut=%d\n",
				c.Name, run.Alg, fmtNS(run.WallNS), run.RatioCut, run.Metrics.CutNets)
		}
	}
}

// writeCSVFile creates dir/name and fills it with emit.
func writeCSVFile(dir, name string, emit func(w *os.File) error) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return emit(f)
}

// fmtNS renders a wall time compactly for the report summary.
func fmtNS(ns int64) string { return time.Duration(ns).Round(time.Millisecond).String() }
