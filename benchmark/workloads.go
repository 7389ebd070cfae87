package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"igpart"
)

// env is one set-up workload, ready to be measured.
type env interface {
	// client runs closed-loop client id until the deadline passes.
	client(id int, deadline time.Time, rec *recorder)
	// peakRSSKB is the peak resident set so far in KiB: the summed VmHWM
	// of the daemons, or the largest ru_maxrss of the CLI runs.
	peakRSSKB() (int64, error)
	// replay lists the inputs the traced run replays, with the ratio
	// cuts the measured phase returned for them.
	replay(rec *recorder) []replayInput
	// stop shuts everything down.
	stop() error
}

// workload is one entry of BENCHMARK.json.
type workload struct {
	name    string
	why     string
	clients int
	// primary is the request class the latencies describe.
	primary string
	// window is how many requests, from the start of the workload's
	// sequence, the statistics cover (see recorder.window); the peak
	// RSS is read once that many have completed, so the retained-job
	// footprint is the same however fast a commit serves them. Today a
	// window takes 14–16 s, which leaves a slower commit room to finish
	// it within a 22 s run.
	window int
	setup  func(b *options, dir string) (env, error)
}

var workloads = []workload{
	{
		name:    "paper-cold",
		why:     "single-node igpartd, every request a distinct seeded variant of the 9 paper circuits: cold IG-Match solves bound by eigensolve, sweep and matching",
		clients: 1, primary: "cold", window: 4 * len(paperPresets),
		setup: setupPaperCold,
	},
	{
		name:    "scale-eigen",
		why:     "igpart CLI on distinct 5k-net scale netlists with a 32-candidate sweep: eigensolve-bound, bypasses the service, the cluster and the full sweep",
		clients: 1, primary: "cold", window: 36,
		setup: setupScaleEigen,
	},
	{
		name:    "cluster-hits",
		why:     "coordinator with journal and 2 backends, 5 cache-hit resubmits per cold small netlist: bound by relay, polling and intake, the solver barely runs",
		clients: 2, primary: "hit", window: 480,
		setup: setupClusterHits,
	},
	{
		name:    "eco-warm",
		why:     "single-node igpartd, chains of seeded ECO PATCH deltas each sent twice: warm starts that skip the eigensolve, cache writes then cache reads",
		clients: 1, primary: "eco", window: 4 * len(ecoBases) * ecoRequests,
		setup: setupECOWarm,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// seq is an unbounded deterministic input sequence: setup generates a
// prefix, clients that run past it generate further items on demand.
type seq[T any] struct {
	mu    sync.Mutex
	items []T
	gen   func(i int) (T, error)
}

func (s *seq[T]) at(i int) (T, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.items) <= i {
		it, err := s.gen(len(s.items))
		if err != nil {
			var zero T
			return zero, err
		}
		s.items = append(s.items, it)
	}
	return s.items[i], nil
}

// paperPresets are the nine circuits of the paper's Tables 2–3.
var paperPresets = []string{"bm1", "19ks", "Prim1", "Prim2", "Test02", "Test03", "Test04", "Test05", "Test06"}

// primeAll submits every netlist once through two clients and returns
// the verified results, indexed like ns.
func primeAll(base string, ns []*netlist) ([]*resultDoc, error) {
	out := make([]*resultDoc, len(ns))
	errs := make([]error, len(ns))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newAPIClient(base)
			defer cl.close()
			for i := int(next.Add(1) - 1); i < len(ns); i = int(next.Add(1) - 1) {
				o, err := cl.submit(http.MethodPost, "/v1/jobs", ns[i].body)
				if err == nil {
					err = verifyResult(ns[i].h, o.job.Result)
				}
				if err != nil {
					errs[i] = fmt.Errorf("prime %s: %w", ns[i].label, err)
					continue
				}
				out[i] = o.job.Result
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// daemonsRSSKB sums the daemons' VmHWM.
func daemonsRSSKB(ds ...*daemon) (int64, error) {
	var kb int64
	for _, d := range ds {
		v, err := d.peakRSSKB()
		if err != nil {
			return 0, fmt.Errorf("%s: VmHWM: %w", d.name, err)
		}
		kb += v
	}
	return kb, nil
}

// stopDaemons drains the daemons in order and reports the first failure.
func stopDaemons(ds ...*daemon) error {
	var first error
	for _, d := range ds {
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// serverTime is how long the daemon itself held a finished job.
func serverTime(j jobDoc) time.Duration {
	if j.Started == nil || j.Finished == nil {
		return 0
	}
	return j.Finished.Sub(*j.Started)
}

// ---- paper-cold ----

type paperCold struct {
	b      *options
	d      *daemon
	inputs *seq[*netlist]
	next   atomic.Int64
}

func setupPaperCold(b *options, _ string) (env, error) {
	inputs := &seq[*netlist]{gen: func(i int) (*netlist, error) {
		name := paperPresets[i%len(paperPresets)]
		return genBookshelf(preset(name, mix(b.seed, 1, int64(i)), b.scale), fmt.Sprintf("paper-%d", i))
	}}
	// More than a 22-second run sends at today's speed; faster code runs
	// past it and generates the rest on demand.
	if _, err := inputs.at(8 * len(paperPresets)); err != nil {
		return nil, err
	}
	d, err := startDaemon(b.igpartd, "igpartd")
	if err != nil {
		return nil, err
	}
	return &paperCold{b: b, d: d, inputs: inputs}, nil
}

func (w *paperCold) client(id int, deadline time.Time, rec *recorder) {
	c := newAPIClient(w.d.url())
	defer c.close()
	for time.Now().Before(deadline) {
		i := int(w.next.Add(1) - 1)
		n, err := w.inputs.at(i)
		if err != nil {
			rec.fail("generate: %v", err)
			return
		}
		rec.attempt()
		o, err := c.submit(http.MethodPost, "/v1/jobs", n.body)
		if err == nil {
			err = verifyResult(n.h, o.job.Result)
		}
		if err == nil && o.job.Cached {
			err = fmt.Errorf("a distinct netlist was answered from the cache")
		}
		if err != nil {
			rec.fail("%s: %v", n.label, err)
			continue
		}
		overhead := time.Duration(-1)
		if w.b.trace {
			overhead = o.latency - serverTime(o.job)
		}
		rec.done(request{class: "cold", group: paperPresets[i%len(paperPresets)], idx: i, label: n.label}, o, overhead)
	}
}

func (w *paperCold) replay(rec *recorder) []replayInput {
	var in []replayInput
	for i := range paperPresets {
		n, _ := w.inputs.at(i) // generated during setup
		in = append(in, newReplayInput(w.b, n, 0, rec, i))
	}
	return in
}

func (w *paperCold) peakRSSKB() (int64, error) { return daemonsRSSKB(w.d) }

func (w *paperCold) stop() error { return stopDaemons(w.d) }

// ---- scale-eigen ----

// scaleCandidates is the CLI's -candidates value for the scale workload.
const scaleCandidates = 32

// scaleInputs is how many distinct netlists a scale-eigen run cycles
// through: more than a run solves, so each solve is a fresh netlist and
// the share of eigensolves that need a Lanczos restart averages out.
const scaleInputs = 64

type scaleEigen struct {
	b      *options
	inputs []*netlist
	next   atomic.Int64
	maxRSS atomic.Int64 // KiB
}

func setupScaleEigen(b *options, dir string) (env, error) {
	w := &scaleEigen{b: b}
	for i := 0; i < scaleInputs; i++ {
		// 5k nets: the scale100k structure at a twentieth of its size.
		n, err := genHGR(preset("scale100k", mix(b.seed, 2, int64(i)), 0.05*b.scale), dir, fmt.Sprintf("scale-%d", i))
		if err != nil {
			return nil, err
		}
		w.inputs = append(w.inputs, n)
	}
	return w, nil
}

func (w *scaleEigen) client(id int, deadline time.Time, rec *recorder) {
	for time.Now().Before(deadline) {
		i := int(w.next.Add(1) - 1)
		n := w.inputs[i%len(w.inputs)]
		args := []string{"-in", n.path, "-algo", "igmatch", "-candidates", fmt.Sprint(scaleCandidates), "-assign"}
		if w.b.trace {
			args = append(args, "-trace")
		}
		rec.attempt()
		run, err := runCLI(w.b.igpart, args...)
		var r *resultDoc
		if err == nil {
			r, err = parseAssign(n.h, run.stdout)
		}
		if err != nil {
			rec.fail("%s: %v", n.label, err)
			continue
		}
		for cur := w.maxRSS.Load(); run.maxRSSK > cur && !w.maxRSS.CompareAndSwap(cur, run.maxRSSK); cur = w.maxRSS.Load() {
		}
		overhead := time.Duration(-1)
		if w.b.trace {
			overhead = run.wall - solverTime(run.stdout)
		}
		rec.done(request{class: "cold", idx: i, label: n.label}, outcome{job: jobDoc{Result: r}, latency: run.wall}, overhead)
	}
}

// solverTime sums the top-level stages of the CLI's -trace tree: the
// pipeline itself, without process start, netlist loading and output.
func solverTime(out string) time.Duration {
	var total time.Duration
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "  ") || strings.HasPrefix(line, "   ") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		if d, err := time.ParseDuration(f[1]); err == nil {
			total += d
		}
	}
	return total
}

func (w *scaleEigen) replay(rec *recorder) []replayInput {
	var in []replayInput
	for i, n := range w.inputs[:4] {
		in = append(in, newReplayInput(w.b, n, scaleCandidates, rec, i))
	}
	return in
}

func (w *scaleEigen) peakRSSKB() (int64, error) { return w.maxRSS.Load(), nil }

func (w *scaleEigen) stop() error { return nil }

// ---- cluster-hits ----

// hitsPerCold is the number of cache-hit resubmits per cold request.
const hitsPerCold = 5

type clusterHits struct {
	b        *options
	coord    *daemon
	backends map[string]*daemon
	hot      []*netlist
	orig     []*resultDoc
	cold     *seq[*netlist]
	next     atomic.Int64
}

// smallPreset is a cluster-hits netlist: bm1- or Prim1-structured at a
// quarter of the size, so the relay, not the solver, sets the latency.
func smallPreset(b *options, i int, salt int64) igpart.GenConfig {
	return preset([]string{"bm1", "Prim1"}[i%2], mix(b.seed, salt, int64(i)), 0.25*b.scale)
}

func setupClusterHits(b *options, dir string) (env, error) {
	w := &clusterHits{b: b, backends: make(map[string]*daemon)}
	for i := 0; i < 16; i++ {
		n, err := genBookshelf(smallPreset(b, i, 3), fmt.Sprintf("hot-%d", i))
		if err != nil {
			return nil, err
		}
		w.hot = append(w.hot, n)
	}
	w.cold = &seq[*netlist]{gen: func(i int) (*netlist, error) {
		return genBookshelf(smallPreset(b, i, 4), fmt.Sprintf("cold-%d", i))
	}}
	if _, err := w.cold.at(150); err != nil {
		return nil, err
	}
	var specs []string
	for _, name := range []string{"n1", "n2"} {
		d, err := startDaemon(b.igpartd, "backend "+name, "-workers", "1")
		if err != nil {
			_ = w.stop() // the setup error is the one to report
			return nil, err
		}
		w.backends[name] = d
		specs = append(specs, name+"="+d.url())
	}
	var err error
	w.coord, err = startDaemon(b.igpartd, "coordinator", "-coordinator",
		"-backends", strings.Join(specs, ","), "-journal", filepath.Join(dir, "journal.jsonl"))
	if err == nil {
		w.orig, err = primeAll(w.coord.url(), w.hot)
	}
	if err != nil {
		_ = w.stop() // the setup error is the one to report
		return nil, err
	}
	return w, nil
}

func (w *clusterHits) client(id int, deadline time.Time, rec *recorder) {
	c := newAPIClient(w.coord.url())
	defer c.close()
	// Traced runs read each job's record from its backend too.
	peers := make(map[string]*apiClient)
	for name, d := range w.backends {
		peers[name] = newAPIClient(d.url())
		defer peers[name].close()
	}
	for time.Now().Before(deadline) {
		i := int(w.next.Add(1) - 1)
		class, label := "hit", ""
		var n *netlist
		var orig *resultDoc
		if i%(hitsPerCold+1) == hitsPerCold {
			var err error
			if n, err = w.cold.at(i / (hitsPerCold + 1)); err != nil {
				rec.fail("generate: %v", err)
				return
			}
			class, label = "cold", n.label
		} else {
			k := int(uint64(mix(w.b.seed, 5, int64(i))) % uint64(len(w.hot)))
			n, orig = w.hot[k], w.orig[k]
		}
		rec.attempt()
		o, err := c.submit(http.MethodPost, "/v1/jobs", n.body)
		if err == nil {
			err = verifyResult(n.h, o.job.Result)
		}
		if err == nil && orig != nil {
			err = sameResult(o.job.Result, orig)
		}
		if err != nil {
			rec.fail("%s: %v", n.label, err)
			continue
		}
		overhead := time.Duration(-1)
		if w.b.trace {
			peer, ok := peers[o.job.Backend]
			if !ok {
				rec.fail("%s: job names unknown backend %q", n.label, o.job.Backend)
				continue
			}
			bj, err := peer.get(o.job.BackendJob)
			if err != nil {
				rec.fail("%s: backend record: %v", n.label, err)
				continue
			}
			overhead = o.latency - serverTime(bj)
		}
		rec.done(request{class: class, idx: i, label: label}, o, overhead)
	}
}

func (w *clusterHits) replay(rec *recorder) []replayInput {
	var in []replayInput
	for i, n := range w.hot[:4] {
		ri := newReplayInput(w.b, n, 0, rec, i)
		ri.want = w.orig[i].RatioCut
		in = append(in, ri)
	}
	for i := 0; i < 2; i++ {
		n, _ := w.cold.at(i) // generated during setup
		in = append(in, newReplayInput(w.b, n, 0, rec, 4+i))
	}
	return in
}

// daemons lists the running daemons, the coordinator first so that it
// drains before its backends go.
func (w *clusterHits) daemons() []*daemon {
	var ds []*daemon
	if w.coord != nil {
		ds = append(ds, w.coord)
	}
	for _, name := range []string{"n1", "n2"} {
		if d := w.backends[name]; d != nil {
			ds = append(ds, d)
		}
	}
	return ds
}

func (w *clusterHits) peakRSSKB() (int64, error) { return daemonsRSSKB(w.daemons()...) }

func (w *clusterHits) stop() error { return stopDaemons(w.daemons()...) }

// ---- eco-warm ----

// ecoLinks is the length of one ECO delta chain; a chain is one base
// resubmit plus a new and a repeated PATCH per link.
const (
	ecoLinks    = 10
	ecoRequests = 1 + 2*ecoLinks
)

// ecoBases are the solved netlists the chains start from, one per paper
// circuit, so a run averages warm starts over nine base structures.
var ecoBases = paperPresets

// ecoLink is one delta of a chain: the PATCH body and the netlist it
// produces, against which the result is verified.
type ecoLink struct {
	delta igpart.NetlistDelta
	body  []byte
	h     *igpart.Netlist
	base  int // net count of the netlist the delta applies to
}

type ecoWarm struct {
	b      *options
	d      *daemon
	bases  []*netlist
	orig   []*resultDoc
	chains *seq[[]ecoLink]
}

func setupECOWarm(b *options, _ string) (env, error) {
	w := &ecoWarm{b: b}
	for i, name := range ecoBases {
		n, err := genBookshelf(preset(name, mix(b.seed, 6, int64(i)), b.scale), fmt.Sprintf("base-%d", i))
		if err != nil {
			return nil, err
		}
		w.bases = append(w.bases, n)
	}
	w.chains = &seq[[]ecoLink]{gen: func(c int) ([]ecoLink, error) {
		h := w.bases[c%len(w.bases)].h
		links := make([]ecoLink, ecoLinks)
		for k := range links {
			d := genDelta(h, mix(b.seed, 7, int64(c), int64(k)))
			body, err := json.Marshal(map[string]any{"delta": d})
			if err != nil {
				return nil, err
			}
			next, _ := d.Apply(h)
			links[k] = ecoLink{delta: d, body: body, h: next, base: h.NumNets()}
			h = next
		}
		return links, nil
	}}
	if _, err := w.chains.at(5 * len(ecoBases)); err != nil {
		return nil, err
	}
	var err error
	if w.d, err = startDaemon(b.igpartd, "igpartd"); err != nil {
		return nil, err
	}
	if w.orig, err = primeAll(w.d.url(), w.bases); err != nil {
		_ = w.d.stop() // the priming error is the one to report
		return nil, err
	}
	return w, nil
}

// client walks the chains in order: each starts by resubmitting its base
// (a cache hit, which also gives a fresh job to chain from), then PATCHes
// every new delta against the previous link and repeats it once.
func (w *ecoWarm) client(id int, deadline time.Time, rec *recorder) {
	c := newAPIClient(w.d.url())
	defer c.close()
	for ch := 0; time.Now().Before(deadline); ch++ {
		links, err := w.chains.at(ch)
		if err != nil {
			rec.fail("generate: %v", err)
			return
		}
		idx := ch * ecoRequests
		b := ch % len(w.bases)
		rec.attempt()
		o, err := c.submit(http.MethodPost, "/v1/jobs", w.bases[b].body)
		if err == nil {
			err = sameResult(o.job.Result, w.orig[b])
		}
		if err != nil {
			rec.fail("chain %d base: %v", ch, err)
			continue
		}
		w.record(rec, request{class: "hit", group: ecoBases[b], idx: idx}, o)
		prev := o.job.ID
		for k, l := range links {
			if !time.Now().Before(deadline) {
				return
			}
			label := fmt.Sprintf("eco/c%d/l%d", ch, k)
			rec.attempt()
			o, err := c.submit(http.MethodPatch, "/v1/jobs/"+prev, l.body)
			if err == nil {
				err = verifyResult(l.h, o.job.Result)
			}
			if err == nil {
				err = verifyECO(o.job.Result, l.delta, l.base)
			}
			if err != nil {
				rec.fail("%s: %v", label, err)
				break
			}
			w.record(rec, request{class: "eco", group: ecoBases[b], idx: idx + 1 + 2*k, label: label}, o)
			rec.attempt()
			again, err := c.submit(http.MethodPatch, "/v1/jobs/"+prev, l.body)
			if err == nil {
				err = sameResult(again.job.Result, o.job.Result)
			}
			if err != nil {
				rec.fail("%s repeat: %v", label, err)
				break
			}
			w.record(rec, request{class: "hit", group: ecoBases[b], idx: idx + 2 + 2*k}, again)
			prev = o.job.ID
		}
	}
}

func (w *ecoWarm) record(rec *recorder, q request, o outcome) {
	overhead := time.Duration(-1)
	if w.b.trace {
		overhead = o.latency - serverTime(o.job)
	}
	rec.done(q, o, overhead)
}

func (w *ecoWarm) replay(rec *recorder) []replayInput {
	var in []replayInput
	for i, n := range w.bases {
		ri := newReplayInput(w.b, n, 0, rec, i)
		ri.want = w.orig[i].RatioCut
		// Chain i starts from base i: replay its first delta and expect
		// the daemon's warm result.
		links, _ := w.chains.at(i) // generated during setup
		ri.delta = links[0].delta
		if v, ok := rec.cut(fmt.Sprintf("eco/c%d/l0", i)); ok {
			ri.wantWarm = v
		}
		in = append(in, ri)
	}
	return in
}

func (w *ecoWarm) peakRSSKB() (int64, error) { return daemonsRSSKB(w.d) }

func (w *ecoWarm) stop() error { return stopDaemons(w.d) }

// newReplayInput prepares input n for the traced run, expecting the
// ratio cut the measured phase recorded for it (if any) and pairing it
// with a seeded ECO delta.
func newReplayInput(b *options, n *netlist, candidates int, rec *recorder, i int) replayInput {
	ri := replayInput{n: n, candidates: candidates, want: math.NaN(), wantWarm: math.NaN()}
	if v, ok := rec.cut(n.label); ok {
		ri.want = v
	}
	ri.delta = genDelta(n.h, mix(b.seed, 8, int64(i)))
	return ri
}
