// Command igpart partitions a netlist file with a chosen algorithm and
// prints the resulting metrics (and optionally the assignment).
//
// Usage:
//
//	igpart -in design.hgr [-algo igmatch|multilevel|portfolio|igvote|eig1|rcut|kl|refined|condensed|multiway|kway|kway-spectral|igdiam]
//	       [-levels 3] [-cratio 0.9] [-starts 10] [-seed 1] [-p 0] [-assign] [-stats]
//	       [-k 4] [-eps 0.03] [-fix design.fix]
//	       [-reorth auto|full|selective] [-matvec-p 0] [-candidates 0]
//	       [-portfolio-budget 30s] [-portfolio-accept 0]
//	       [-trace] [-metrics] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The input format is selected by extension: ".hgr" for the hMETIS-style
// format, anything else for the named module/net format.
//
// -trace prints the per-stage timing tree of the run (for igmatch, the
// full pipeline breakdown: IG build, Laplacian assembly, eigensolve
// cycles, sweep shards). -metrics dumps the run's counter/gauge/timer
// registry. -cpuprofile / -memprofile write pprof profiles for
// `go tool pprof`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"igpart"
	"igpart/internal/engine"
	"igpart/internal/fm"
	"igpart/internal/hypergraph"
)

// seeded lists the engines -seed reaches. igmatch, multilevel, eig1 and
// multiway keep eigen seed 0: routing the flag there would move their
// default cuts. rootTraced lists the engines whose stage tree -trace
// prints at the root; any other records under one span of its name.
var seeded = map[string]bool{
	engine.RCut: true, engine.KL: true, engine.Portfolio: true, engine.KWay: true, engine.KWaySpectral: true,
}
var rootTraced = map[string]bool{engine.IGMatch: true, engine.Multilevel: true, engine.Portfolio: true}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "igpart:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, partitions the netlist and
// writes everything but errors to stdout.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("igpart", flag.ContinueOnError)
	names := make([]string, 0, len(engine.Engines()))
	for _, e := range engine.Engines() {
		names = append(names, e.Name)
	}
	var (
		in     = fs.String("in", "", "input netlist path (.hgr or named format)")
		nodes  = fs.String("nodes", "", "Bookshelf .nodes path (use with -nets instead of -in)")
		nets   = fs.String("nets", "", "Bookshelf .nets path (use with -nodes instead of -in)")
		algo   = fs.String("algo", engine.IGMatch, "algorithm: "+strings.Join(names, ", "))
		k      = fs.Int("k", 4, "part count for -algo multiway/kway/kway-spectral")
		eps    = fs.Float64("eps", 0, "imbalance budget for -algo kway/kway-spectral: each part holds at most ceil((1+eps)*n/k) modules (0 = perfect balance)")
		levels = fs.Int("levels", 3, "V-cycle depth for -algo multilevel (1 = flat igmatch)")
		cratio = fs.Float64("cratio", 0.9, "largest acceptable per-round net shrink factor for -algo multilevel")
		starts = fs.Int("starts", 10, "random starts for rcut")
		par    = fs.Int("p", 0, "igmatch sweep parallelism: shards swept concurrently (0 = GOMAXPROCS, 1 = serial; results identical)")
		reorth = fs.String("reorth", "", "Lanczos reorthogonalization: auto (default; selective above "+
			"the size cutoff), full, selective")
		matvecP    = fs.Int("matvec-p", 0, "eigensolver matvec workers (0 = auto, 1 = serial; results bit-identical)")
		candidates = fs.Int("candidates", 0, "for -algo igmatch on huge netlists: complete only this many evenly spaced splits instead of the full sweep (0 = full sweep)")
		seed       = fs.Int64("seed", 1, "seed for -algo rcut, kl, portfolio, kway and kway-spectral; the other engines keep their fixed seed")
		budget     = fs.Duration("portfolio-budget", 0, "for -algo portfolio: race deadline; losers are cancelled and the best finished result wins (0 = wait for all)")
		accept     = fs.Float64("portfolio-accept", 0, "for -algo portfolio: acceptance ratio-cut bound — the first contender at or under it wins immediately (0 = best of lineup)")
		assign     = fs.Bool("assign", false, "print the per-module side assignment")
		stats      = fs.Bool("stats", false, "print netlist statistics before partitioning")
		fixIn      = fs.String("fix", "", "hMETIS .fix file pinning modules to parts: threaded into -algo multiway/kway/kway-spectral, applied with FM refinement after every other algorithm")
		trace      = fs.Bool("trace", false, "print the per-stage timing tree after the run")
		metrics    = fs.Bool("metrics", false, "print the run's metrics registry (counters/gauges/timers)")
		cpuProf    = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf    = fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	reorthMode, err := igpart.ParseReorthMode(*reorth)
	if err != nil {
		return err
	}
	e, ok := engine.Lookup(*algo)
	if !ok {
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, ferr := os.Create(*memProf)
			if ferr == nil {
				defer f.Close()
				runtime.GC()
				ferr = pprof.WriteHeapProfile(f)
			}
			err = errors.Join(err, ferr)
		}()
	}
	var tr *igpart.Trace
	var rec igpart.Recorder // nil when tracing is off
	if *trace || *metrics {
		tr = igpart.NewTrace("igpart")
		rec = tr
	}
	// report prints whatever -trace/-metrics asked for; deferred calls
	// run before the profile writers above.
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
	var h *igpart.Netlist
	switch {
	case *in != "":
		h, err = igpart.Load(*in)
	case *nodes != "" && *nets != "":
		h, err = igpart.LoadBookshelf(*nodes, *nets)
	default:
		fs.Usage()
		return errors.New("need -in, or -nodes with -nets")
	}
	if err != nil {
		return err
	}
	if *stats {
		fmt.Fprintln(stdout, hypergraph.ComputeStats(h))
	}

	spec := engine.Spec{
		Pipeline:   engine.Pipeline{Parallelism: *par, Reorth: reorthMode, MatvecParallelism: *matvecP, Rec: rec},
		Candidates: *candidates, Levels: *levels, CoarseningRatio: *cratio,
		K: *k, Eps: *eps, Budget: *budget, Accept: *accept, Starts: *starts,
	}
	if seeded[e.Name] {
		spec.Seed = *seed
	}
	// The k-way engines take the pins and keep them through every
	// bisection; after a bipartition they are patched in by FM below.
	var fix hypergraph.FixAssignment
	if *fixIn != "" {
		parts := 2
		if e.KWay {
			parts = *k
		}
		if fix, err = hypergraph.LoadFix(*fixIn, h.NumModules(), parts); err != nil {
			return err
		}
		spec.Fixed = fix.Part
	}
	end := func() {}
	if rec != nil && !rootTraced[e.Name] {
		sp := rec.StartSpan(e.Name)
		spec.Rec, end = sp, sp.End
	}
	out, err := e.Run(h, spec)
	end()
	if err != nil {
		return err
	}
	if mw := out.KWay; e.KWay {
		if e.Name == engine.Multiway {
			fmt.Fprintf(stdout, "multiway: k=%d sizes=%v spanning=%d connectivity=%d ratio=%.5g\n",
				mw.K, mw.PartSizesSorted(), mw.SpanningNets, mw.Connectivity, mw.RatioValue)
		} else {
			fmt.Fprintf(stdout, "%s: k=%d eps=%g cap=%d sizes=%v spanning=%d connectivity=%d ratio=%.5g\n",
				e.Name, mw.K, *eps, mw.Cap, mw.PartSizesSorted(), mw.SpanningNets, mw.Connectivity, mw.RatioValue)
		}
		for v := 0; *assign && v < h.NumModules(); v++ {
			fmt.Fprintf(stdout, "%s %d\n", h.ModuleName(v), mw.Part[v])
		}
		return nil
	}

	// Each engine's extra lines follow from what its outcome carries.
	res := igpart.Result{Partition: out.Partition, Metrics: out.Metrics}
	switch {
	case out.Race.Winner != "":
		fmt.Fprintf(stdout, "features: %s\n", out.Race.Features)
		for _, c := range out.Race.Contenders {
			status := "finished"
			switch {
			case c.Cancelled:
				status = "cancelled"
			case c.Err != nil:
				status = "failed: " + c.Err.Error()
			}
			fmt.Fprintf(stdout, "contender %-14s %-9s wall=%v ratio=%.6g\n", c.Alg, status, c.Wall.Round(time.Microsecond), c.Metrics.RatioCut)
		}
		fmt.Fprintf(stdout, "winner=%s accepted=%v\n", out.Race.Winner, out.Race.Accepted)
	case out.Levels > 0:
		fmt.Fprintf(stdout, "levels=%d coarsest-nets=%d/%d coarsest-on-input=%v\n",
			out.Levels, out.CoarsestNets, h.NumNets(), out.CoarsestOnInput)
	case out.BestRank > 0:
		fmt.Fprintf(stdout, "lambda2=%.6g split=%d/%d matching-bound=%d\n",
			out.Lambda2, out.BestRank, h.NumNets(), out.BestMatching)
	}
	if *fixIn != "" {
		for v, part := range fix.Part {
			if part == 0 {
				res.Partition.Set(v, igpart.U)
			} else if part == 1 {
				res.Partition.Set(v, igpart.W)
			}
		}
		met, _, err := fm.RefinePartition(h, res.Partition, fm.Options{Fixed: fix.Mask()})
		if err != nil {
			return err
		}
		res.Metrics = met
		fmt.Fprintf(stdout, "applied %d pinned modules from %s\n", fix.NumFixed(), *fixIn)
	}
	fmt.Fprintf(stdout, "%s: %v\n", e.Name, res.Metrics)
	for v := 0; *assign && v < h.NumModules(); v++ {
		fmt.Fprintf(stdout, "%s %v\n", h.ModuleName(v), res.Partition.Side(v))
	}
	return nil
}
