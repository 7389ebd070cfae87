// Command benchmark is igpart's end-to-end and per-layer benchmark. It
// builds cmd/igpart and cmd/igpartd from the checkout, drives them as
// subprocesses through one of four workloads, verifies every result,
// and prints every metric; a traced run adds an in-process replay that
// times each library layer. Run it from the repository root:
//
//	bash benchmark/run.sh --workload paper-cold --seed 1 --seconds 22 --trace 0
//	bash benchmark/run.sh -compare set1 set2
//
// See benchmark/README.md for the workloads, the metrics and -compare.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

// options are the settings of one measurement run.
type options struct {
	root     string // repository to build and measure
	workload string
	seed     int64
	seconds  float64
	trace    bool // traced run: the measured phase also times what lies outside the solver
	out      string
	scale    float64 // input size factor; 1 is the benchmark, the self-test shrinks it
	setups   int     // set-ups per run; setup_s is their median
	// The binaries under test, built from root by buildBinaries.
	igpart, igpartd string
}

func run() int {
	var (
		o       options
		trace   int
		compare string
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: paper-cold, scale-eigen, cluster-hits or eco-warm")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	flag.Float64Var(&o.seconds, "seconds", 22, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: report the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.out, "out", "", "also write the run's record to this JSON file (and its spans to <out>.trace.json)")
	flag.StringVar(&compare, "compare", "", "compare two run-sets: -compare A.json[,A2.json...] B.json[,B2.json...] (directories allowed)")
	flag.Parse()
	// run.sh starts the harness in the repository root; the self-test
	// alone shrinks the inputs and sets up once.
	o.root, o.scale, o.setups, o.trace = ".", 1, 3, trace == 1

	if compare != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two run-sets: -compare A[,A2...] B[,B2...]")
			return 2
		}
		worse, err := compareSets(filepath.Join(o.root, "BENCHMARK.json"), compare, flag.Arg(0), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}

	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	// Children die with the harness: on SIGINT/SIGTERM kill them all and
	// leave; on every normal return the deferred kill is a no-op sweep.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(130)
	}()
	defer killChildren()

	var err error
	if o.igpart, o.igpartd, err = buildBinaries(o.root); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	rec, err := measure(o, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	for _, d := range reported(o.trace) {
		v := rec.Metrics[d.name]
		fmt.Printf("%s %s %.6g %s\n", o.workload, d.name, v.Value, v.Unit)
	}
	final := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics}
	for _, f := range rec.Failures {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", f)
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one run reports; -out writes it and -compare
// reads it back.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Scale     float64                `json:"scale"`
	Env       map[string]any         `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Details   map[string]any         `json:"details"`
}

// measure sets the workload up o.setups times, measures the last set-up
// for o.seconds, and in a traced run replays a sample of its inputs
// layer by layer.
func measure(o options, w workload) (*record, error) {
	root, err := filepath.Abs(o.root)
	if err != nil {
		return nil, err
	}
	scratch := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer removeAll(tmp)
	clients := min(w.clients, runtime.NumCPU())

	setups := o.setups
	if o.trace {
		setups = 1 // a traced run reports no set-up time
	}
	var setupS []float64
	var e env
	for i := 0; i < setups; i++ {
		dir := filepath.Join(tmp, fmt.Sprintf("setup-%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		e, err = w.setup(&o, dir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if i < setups-1 {
			if err := e.stop(); err != nil {
				return nil, fmt.Errorf("setup teardown: %w", err)
			}
		}
	}

	rec := newRecorder()
	var peakKB int64
	var peakErr error
	rec.countAt, rec.onCount = w.window, func() { peakKB, peakErr = e.peakRSSKB() }
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			e.client(id, deadline, rec)
		}(c)
	}
	wg.Wait()
	if len(rec.samples) < w.window {
		peakKB, peakErr = e.peakRSSKB()
	}
	if peakErr != nil {
		rec.fail("peak RSS: %v", peakErr)
	}
	if err := e.stop(); err != nil {
		rec.fail("teardown: %v", err)
	}

	// The statistics cover the request window and the time until its
	// last result arrived.
	win := rec.window(w.window)
	var lat, quanta []float64
	byGroup := make(map[string][]float64)
	counts := make(map[string][2]int) // per class: answered from a cache, answered
	end := start
	for _, s := range win {
		if s.class == w.primary {
			lat = append(lat, s.ms)
			byGroup[s.group] = append(byGroup[s.group], s.ms)
		}
		quanta = append(quanta, s.quantum)
		c := counts[s.class]
		if s.cached {
			c[0]++
		}
		c[1]++
		counts[s.class] = c
		if s.end.After(end) {
			end = s.end
		}
	}
	r := &record{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Scale: o.scale,
		Env:     environment(root, clients),
		Metrics: make(map[string]metricValue),
		Details: map[string]any{
			"setup_runs_s":    setupS,
			"window_s":        end.Sub(start).Seconds(),
			"window_requests": len(win),
			"window_complete": len(win) == w.window,
			"completed":       len(rec.samples),
			"primary_class":   w.primary,
			"primary_samples": len(lat),
			"primary_ms":      lat,
			"cached_answered": counts,
		},
	}
	if len(quanta) > 0 {
		r.Details["poll_quantum_mean_ms"] = mean(quanta)
	}
	set := func(name string, v float64) {
		for _, d := range reported(o.trace) {
			if d.name == name {
				r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
				return
			}
		}
		panic("undeclared metric " + name) // the names are constants of this package
	}
	if o.trace {
		inputs := e.replay(rec)
		res, err := replay(inputs, tmp)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		for _, msg := range res.errs {
			rec.fail("traced run: %s", msg)
		}
		for name, v := range res.metrics {
			set(name, v)
		}
		var sample []*netlist
		for _, in := range inputs {
			sample = append(sample, in.n)
		}
		wire, errs, err := wireReplay(o.igpartd, tmp, sample)
		if err != nil {
			return nil, fmt.Errorf("wire replay: %w", err)
		}
		for _, msg := range errs {
			rec.fail("%s", msg)
		}
		for name, v := range wire {
			set(name, v)
		}
		set("client.overhead_p50_ms", median(rec.overhead))
		if o.out != "" {
			if err := writeJSON(o.out+".trace.json", res.spans); err != nil {
				return nil, err
			}
		}
	} else {
		set("setup_s", median(setupS))
		set("latency_p50_ms", groupMedian(byGroup))
		set("latency_p90_ms", quantile(lat, 0.9))
		set("jobs_per_s", float64(len(win))/end.Sub(start).Seconds())
		set("peak_rss_mb", float64(peakKB)/1024)
	}

	r.Attempted, r.Failed, r.Failures = max(rec.attempted, 1), rec.failed, rec.failures
	if len(lat) == 0 {
		r.Failures = append(r.Failures, "no "+w.primary+" request completed")
	}
	for _, d := range reported(o.trace) {
		v, ok := r.Metrics[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.Failures = append(r.Failures, "metric "+d.name+" was not measured")
			r.Metrics[d.name] = metricValue{Unit: d.unit} // JSON has no NaN; the run is marked incorrect
		}
	}
	r.Correct = rec.failed == 0 && len(r.Failures) == 0
	if o.out != "" {
		if err := writeJSON(o.out, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// reported lists the metrics a run reports: the per-layer ones in a
// traced run, the end-to-end ones otherwise.
func reported(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// groupMedian is the mean over input groups of each group's median
// latency. A workload of one kind of input has one group, and this is
// its median; paper-cold and eco-warm mix nine circuit sizes, whose
// pooled median falls between size clusters and swings with the seed.
func groupMedian(byGroup map[string][]float64) float64 {
	var meds []float64
	for _, xs := range byGroup {
		meds = append(meds, median(xs))
	}
	return mean(meds)
}

// environment records where a run was taken.
func environment(root string, clients int) map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"clients":    clients,
		"commit":     "unknown",
		"cpu":        "unknown",
	}
	// Only a checkout that is itself a git repository names its commit;
	// git would otherwise report an enclosing repository's.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			env["commit"] = strings.TrimSpace(string(out))
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// removeAll deletes a scratch directory; a failure leaves litter under
// .bench_build only, so it is reported and not fatal.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
