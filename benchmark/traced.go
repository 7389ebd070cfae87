package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"igpart"
	"igpart/internal/cluster"
	"igpart/internal/core"
	"igpart/internal/eigen"
	"igpart/internal/hypergraph"
	"igpart/internal/netmodel"
	"igpart/internal/obs"
	"igpart/internal/sparse"
)

// The traced run replays a sample of a workload's inputs in process,
// calling each layer's public functions in the order the pipeline does
// and timing every call with a span the benchmark owns. It runs after
// the measured phase, with every daemon stopped.

// replayInput is one input of the traced run.
type replayInput struct {
	n          *netlist
	candidates int     // 0: full sweep (igpartd jobs); >0: the CLI's candidate sweep
	want       float64 // ratio cut the daemon or CLI returned; NaN if none
	delta      igpart.NetlistDelta
	wantWarm   float64 // ratio cut the daemon returned for delta; NaN if none
}

// span is one timed call. Parent indexes the span list (-1 for a
// request's root); Self is the duration minus the time child spans cover.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
	Self   int64  `json:"self_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name, req string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = time.Since(t.t0).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

// finish computes self times. Spans of one parent never overlap (the
// replay is sequential), so child coverage is the sum of the children.
func (t *tracer) finish() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.End - s.Start
		}
	}
}

// matvecCalls is how many products the sparse kernel timing averages.
const matvecCalls = 301

// replayResult is the traced run's outcome.
type replayResult struct {
	metrics map[string]float64
	spans   []span
	errs    []string // inputs whose layered result differs from the real pipeline's
}

// replay runs every input through the layered pipeline and reduces the
// per-input values to the per-layer metrics (means per input).
func replay(inputs []replayInput, tmp string) (replayResult, error) {
	j, _, err := cluster.OpenJournal(filepath.Join(tmp, "trace-journal.jsonl"))
	if err != nil {
		return replayResult{}, err
	}
	defer j.Close()
	r := &replayer{t: &tracer{t0: time.Now()}, vals: make(map[string][]float64), journal: j}
	var res replayResult
	for i, in := range inputs {
		r.req, r.in = fmt.Sprintf("r%d-%s", i, in.n.label), in
		if err := r.run(); err != nil {
			res.errs = append(res.errs, fmt.Sprintf("%s: %v", in.n.label, err))
		}
	}
	r.t.finish()
	res.spans = r.t.spans
	res.metrics = make(map[string]float64)
	for name, vs := range r.vals {
		res.metrics[name] = mean(vs)
	}
	res.metrics["core.ratio_cut_geomean"] = geomean(r.ratios)
	res.metrics["trace.layer_sum_ratio"] = float64(r.layerSum) / float64(r.untraced)
	res.metrics["portfolio.cut_vs_cold"] = 1 // every cut zero: equal quality
	if r.coldCut > 0 || r.warmCut > 0 {
		res.metrics["portfolio.cut_vs_cold"] = r.warmCut / r.coldCut
	}
	return res, nil
}

// replayer carries one input through the layers.
type replayer struct {
	t       *tracer
	vals    map[string][]float64 // per-input values by metric name
	journal *cluster.Journal
	ratios  []float64

	// Production-pass layer spans summed, against the untraced solves.
	layerSum, untraced time.Duration
	// Ratio cuts of the warm starts and of the cold solves they save,
	// summed: a removed net can disconnect a netlist, and its zero cut
	// would leave a per-input quotient undefined.
	warmCut, coldCut float64

	req string
	in  replayInput
	h   *igpart.Netlist
	key [sha256.Size]byte
}

func (r *replayer) add(name string, v float64) { r.vals[name] = append(r.vals[name], v) }

// call runs f as span name under parent and returns its duration and the
// MB it allocated. The allocation probe sits outside the span.
func (r *replayer) call(name string, parent int, f func()) (time.Duration, float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := r.t.begin(name, r.req, parent)
	f()
	d := r.t.end(id)
	runtime.ReadMemStats(&m1)
	return d, float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
}

// run replays one input: a GOMAXPROCS=1 pass with serial kernels and
// allocation deltas, a pass at the production settings whose layer spans
// are summed against an untraced solve, then the ECO warm start and the
// journal intake. Every ratio cut must equal the one the daemon or the
// CLI returned, bit for bit.
func (r *replayer) run() error {
	root := r.t.begin("request", r.req, -1)
	defer r.t.end(root)
	serial, err := r.serialPass(root)
	if err != nil {
		return err
	}
	prod, q, err := r.productionPass(root)
	if err != nil {
		return err
	}
	us := r.matvec(root, q, runtime.GOMAXPROCS(0), "sparse.matvec_us.pN")
	// Computed bytes per product: values, column indices and the gathered
	// x entry per stored nonzero, plus the row pointer and y per row.
	bytes := float64(24*q.NNZ() + 16*q.N())
	r.add("sparse.matvec_gbs_computed", bytes/(us*1e3))

	var plain igpart.IGMatchResult
	untraced, _ := r.call("untraced", root, func() {
		if r.in.candidates > 0 {
			plain, err = igpart.IGMatchCandidates(r.h, r.in.candidates)
		} else {
			plain, err = igpart.IGMatch(r.h)
		}
	})
	if err != nil {
		return err
	}
	r.untraced += untraced
	r.ratios = append(r.ratios, prod.Metrics.RatioCut)
	d, _ := r.call("core.candidates", root, func() {
		_, err = core.PartitionCandidatesWithOrder(r.h, prod.NetOrder, scaleCandidates, core.Options{})
	})
	if err != nil {
		return err
	}
	r.add("core.candidates_ms", ms(d))

	var edited *igpart.Netlist
	d, _ = r.call("portfolio.delta_apply", root, func() { edited, _ = r.in.delta.Apply(r.h) })
	r.add("portfolio.delta_apply_ms", ms(d))
	var ws igpart.WarmStartResult
	d, _ = r.call("portfolio.warm_start", root, func() {
		ws, err = igpart.WarmStart(r.h, igpart.IGMatchResult{NetOrder: prod.NetOrder, BestRank: prod.BestRank}, r.in.delta)
	})
	if err != nil {
		return err
	}
	r.add("portfolio.warm_start_ms", ms(d))
	r.add("portfolio.touched_nets", float64(ws.TouchedNets))
	warm := 1.0
	if ws.Cold {
		warm = 0
	}
	r.add("portfolio.warm_frac", warm)
	// The cold solve a warm start saves: its ratio cut is the yardstick of
	// the warm one's quality.
	var cold igpart.IGMatchResult
	r.call("portfolio.cold_solve", root, func() { cold, err = igpart.IGMatch(edited) })
	if err != nil {
		return err
	}
	r.warmCut += ws.Metrics.RatioCut
	r.coldCut += cold.Metrics.RatioCut

	body := r.in.n.body
	if body == nil {
		body, _ = json.Marshal(map[string]string{"path": r.in.n.path}) // a string map always marshals
	}
	d, _ = r.call("cluster.journal_accept", root, func() {
		err = r.journal.Accept("trace-"+r.req, "", fmt.Sprintf("%x", r.key), body)
	})
	if err != nil {
		return err
	}
	r.add("cluster.journal_accept_us", float64(d)/1e3)

	var mismatch []string
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"serial layered", serial.Metrics.RatioCut, prod.Metrics.RatioCut},
		{"untraced library", plain.Metrics.RatioCut, prod.Metrics.RatioCut},
		{"end-to-end", prod.Metrics.RatioCut, r.in.want},
		{"warm start", ws.Metrics.RatioCut, r.in.wantWarm},
	} {
		if !math.IsNaN(c.want) && c.got != c.want {
			mismatch = append(mismatch, fmt.Sprintf("%s ratio cut %v, want %v", c.what, c.got, c.want))
		}
	}
	if mismatch != nil {
		return fmt.Errorf("%s", strings.Join(mismatch, "; "))
	}
	return nil
}

// serialPass runs every layer at GOMAXPROCS=1 with one worker, recording
// parse and canonicalisation, allocation deltas, the serial eigensolve
// and sweep with their counters, and the serial matvec.
func (r *replayer) serialPass(root int) (core.Result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p1 := r.t.begin("pass.p1", r.req, root)
	defer r.t.end(p1)
	var err error
	d, a := r.call("hypergraph.parse", p1, func() { r.h, err = parse(r.in.n) })
	if err != nil {
		return core.Result{}, err
	}
	r.add("hypergraph.parse_ms", ms(d))
	r.add("hypergraph.parse_alloc_mb", a)
	d, _ = r.call("hypergraph.canonical", p1, func() { r.key = sha256.Sum256(r.h.CanonicalBytes()) })
	r.add("hypergraph.canonical_ms", ms(d))

	var g, q *sparse.SymCSR
	_, a = r.call("netmodel.ig_build", p1, func() { g = netmodel.IntersectionGraph(r.h, netmodel.IGOptions{}) })
	r.add("netmodel.ig_build_alloc_mb", a)
	r.add("netmodel.ig_edges", float64(g.OffDiagNNZ()/2))
	r.call("netmodel.laplacian", p1, func() { q = sparse.Laplacian(g) })

	ereg := obs.NewTrace("fiedler")
	var f eigen.FiedlerResult
	fiedler, a := r.call("eigen.fiedler", p1, func() { f, err = eigen.Fiedler(q, eigen.Options{MatvecWorkers: 1, Rec: ereg}) })
	if err != nil {
		return core.Result{}, err
	}
	em := ereg.Metrics()
	matvecs := float64(em.Counter("eigen.matvecs").Value())
	r.add("eigen.fiedler_ms.p1", ms(fiedler))
	r.add("eigen.fiedler_alloc_mb", a)
	r.add("eigen.matvecs", matvecs)
	r.add("eigen.restarts", float64(em.Counter("eigen.restarts").Value()))
	r.add("eigen.reorth_forced", float64(em.Counter("eigen.reorth.forced").Value()))
	r.add("eigen.reorth_skipped", float64(em.Counter("eigen.reorth.skipped").Value()))

	order := core.SortNetsByVector(f.Vector)
	d, _ = r.call("core.conflict_adjacency", p1, func() { core.IGAdjacency(r.h) })
	r.add("core.conflict_adjacency_ms", ms(d))
	sreg := obs.NewTrace("sweep")
	var res core.Result
	d, a = r.call("core.sweep", p1, func() {
		res, err = sweepOrder(r.h, order, r.in.candidates, core.Options{Parallelism: 1, Rec: sreg})
	})
	if err != nil {
		return core.Result{}, err
	}
	sm := sreg.Metrics()
	r.add("core.sweep_ms.p1", ms(d))
	r.add("core.sweep_alloc_mb", a)
	r.add("core.splits", float64(sm.Counter("sweep.splits").Value()))
	r.add("bipartite.augmentations", float64(sm.Counter("sweep.augmentations").Value()))
	r.add("bipartite.phase1_winners", float64(sm.Counter("sweep.phase1_winners").Value()))

	us := r.matvec(p1, q, 1, "sparse.matvec_us.p1")
	// Labelled computed: the solver's operator is the shifted Laplacian,
	// whose products cost a little more than the kernel timed here.
	r.add("eigen.non_matvec_ms", ms(fiedler)-matvecs*us/1e3)
	return res, nil
}

// productionPass runs the pipeline with every option at the default the
// daemon and the CLI use; its layer spans are what the layer sum adds up.
func (r *replayer) productionPass(root int) (core.Result, *sparse.SymCSR, error) {
	pn := r.t.begin("pass.pN", r.req, root)
	defer r.t.end(pn)
	step := func(name, metric string, f func()) {
		d, _ := r.call(name, pn, f)
		r.layerSum += d
		r.add(metric, ms(d))
	}
	var (
		g, q  *sparse.SymCSR
		f     eigen.FiedlerResult
		order []int
		res   core.Result
		err   error
	)
	step("netmodel.ig_build", "netmodel.ig_build_ms", func() { g = netmodel.IntersectionGraph(r.h, netmodel.IGOptions{}) })
	step("netmodel.laplacian", "netmodel.laplacian_ms", func() { q = sparse.Laplacian(g) })
	step("eigen.fiedler", "eigen.fiedler_ms.pN", func() { f, err = eigen.Fiedler(q, eigen.Options{}) })
	if err != nil {
		return core.Result{}, nil, err
	}
	step("core.sort", "core.sort_ms", func() { order = core.SortNetsByVector(f.Vector) })
	step("core.sweep", "core.sweep_ms.pN", func() { res, err = sweepOrder(r.h, order, r.in.candidates, core.Options{}) })
	return res, q, err
}

// matvec times matvecCalls products with the given worker count and
// records the mean microseconds per product under metric.
func (r *replayer) matvec(parent int, q *sparse.SymCSR, workers int, metric string) float64 {
	x, y := make([]float64, q.N()), make([]float64, q.N())
	rng := rand.New(rand.NewSource(1))
	for i := range x {
		x[i] = rng.Float64()
	}
	d, _ := r.call("sparse.matvec", parent, func() {
		for k := 0; k < matvecCalls; k++ {
			q.ParMulVec(y, x, workers)
		}
	})
	us := float64(d) / 1e3 / matvecCalls
	r.add(metric, us)
	return us
}

// parse reads an input the way the daemon or the CLI does.
func parse(n *netlist) (*igpart.Netlist, error) {
	if n.path != "" {
		return hypergraph.LoadFile(n.path)
	}
	return hypergraph.ReadBookshelf(strings.NewReader(n.nodes), strings.NewReader(n.nets))
}

// sweepOrder runs the sweep a request of this kind runs: the full
// IG-Match sweep, or the CLI's evenly spaced candidate splits.
func sweepOrder(h *igpart.Netlist, order []int, candidates int, opts core.Options) (core.Result, error) {
	if candidates > 0 {
		return core.PartitionCandidatesWithOrder(h, order, candidates, opts)
	}
	return core.PartitionWithOrder(h, order, opts)
}
