package service

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"igpart"
	"igpart/internal/core"
	"igpart/internal/fault"
	"igpart/internal/hypergraph"
	"igpart/internal/jobreg"
)

// genNetlist builds a small synthetic circuit for engine tests.
func genNetlist(t *testing.T, modules, nets int, seed int64) *igpart.Netlist {
	t.Helper()
	h, err := igpart.Generate(igpart.GenConfig{Name: "svc", Modules: modules, Nets: nets, Seed: seed})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return h
}

// waitState polls until the job reaches want (or any terminal state)
// and returns the snapshot.
func waitState(t *testing.T, j *Job, want jobreg.State, timeout time.Duration) Snapshot {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		s := j.Snapshot()
		if s.State == want || s.State.Terminal() {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", s.ID, s.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func shutdownNow(t *testing.T, e *Engine) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestSolveMatchesDirectCall(t *testing.T) {
	h := genNetlist(t, 120, 140, 7)
	e := New(Config{Workers: 2})
	defer shutdownNow(t, e)

	job, err := e.Submit(Request{Netlist: h})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	s := job.Wait(context.Background())
	if s.State != jobreg.StateDone {
		t.Fatalf("state = %s (err %v), want done", s.State, s.Err)
	}
	direct, err := igpart.IGMatch(h)
	if err != nil {
		t.Fatalf("direct IGMatch: %v", err)
	}
	if s.Result.Metrics != direct.Metrics {
		t.Fatalf("engine metrics %+v != direct %+v", s.Result.Metrics, direct.Metrics)
	}
	if len(s.Result.Sides) != h.NumModules() {
		t.Fatalf("sides has %d entries, want %d", len(s.Result.Sides), h.NumModules())
	}
	if s.Result.Stages.Name != "solve" {
		t.Fatalf("root span is %q, want solve", s.Result.Stages.Name)
	}
	if s.Result.Stages.Find("sweep") == nil {
		t.Fatal("result carries no sweep stage span")
	}

	// Multilevel through the same engine.
	mj, err := e.Submit(Request{Netlist: h, Options: Options{Algo: AlgoMultilevel, Levels: 2}})
	if err != nil {
		t.Fatalf("submit multilevel: %v", err)
	}
	ms := mj.Wait(context.Background())
	if ms.State != jobreg.StateDone {
		t.Fatalf("multilevel state = %s (err %v)", ms.State, ms.Err)
	}
	mdirect, err := igpart.MultilevelIGMatch(h, igpart.MultilevelOptions{Levels: 2})
	if err != nil {
		t.Fatalf("direct multilevel: %v", err)
	}
	if ms.Result.Metrics != mdirect.Metrics {
		t.Fatalf("multilevel metrics %+v != direct %+v", ms.Result.Metrics, mdirect.Metrics)
	}
}

func TestCacheHitOnIdenticalResubmit(t *testing.T) {
	h := genNetlist(t, 100, 120, 11)
	e := New(Config{Workers: 1})
	defer shutdownNow(t, e)

	var solves atomic.Int64
	real := e.solveFn
	e.solveFn = func(ctx context.Context, req Request) (*Result, error) {
		solves.Add(1)
		return real(ctx, req)
	}

	first := func() Snapshot {
		j, err := e.Submit(Request{Netlist: h})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		return j.Wait(context.Background())
	}
	s1 := first()
	if s1.State != jobreg.StateDone || s1.Cached {
		t.Fatalf("first run: state=%s cached=%v", s1.State, s1.Cached)
	}

	// Same netlist content under permuted net order: the canonical key
	// must collapse the two.
	perm := igpart.NewBuilder().SetNumModules(h.NumModules())
	for e := h.NumNets() - 1; e >= 0; e-- {
		perm.AddNet(h.Pins(e)...)
	}
	j2, err := e.Submit(Request{Netlist: perm.Build()})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	s2 := j2.Wait(context.Background())
	if s2.State != jobreg.StateDone || !s2.Cached {
		t.Fatalf("resubmit: state=%s cached=%v, want done from cache", s2.State, s2.Cached)
	}
	if got := solves.Load(); got != 1 {
		t.Fatalf("solver ran %d times, want 1 (second run must be a pure cache hit)", got)
	}
	if s2.Result != s1.Result {
		t.Fatal("cache hit returned a different result object")
	}
	reg := e.Metrics().Snapshot()
	if reg.Counters["service.cache_hits"] != 1 || reg.Counters["service.cache_misses"] != 1 {
		t.Fatalf("cache counters = %+v, want 1 hit / 1 miss", reg.Counters)
	}

	// Different options (seed) must miss.
	j3, err := e.Submit(Request{Netlist: h, Options: Options{Seed: 99}})
	if err != nil {
		t.Fatalf("submit seed=99: %v", err)
	}
	if s3 := j3.Wait(context.Background()); s3.Cached {
		t.Fatal("different seed was served from cache")
	}

	// Parallelism is not part of the key: results are bit-identical.
	j4, err := e.Submit(Request{Netlist: h, Options: Options{Parallelism: 2}})
	if err != nil {
		t.Fatalf("submit p=2: %v", err)
	}
	if s4 := j4.Wait(context.Background()); !s4.Cached {
		t.Fatal("parallelism-only change missed the cache")
	}
}

// blockingEngine returns an engine whose solver blocks until release is
// closed (or the job context fires), for deterministic lifecycle tests.
func blockingEngine(cfg Config) (*Engine, chan struct{}) {
	e := New(cfg)
	release := make(chan struct{})
	e.solveFn = func(ctx context.Context, req Request) (*Result, error) {
		select {
		case <-release:
			return &Result{Algo: req.Options.Algo, Sides: []igpart.Side{igpart.U, igpart.W}}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return e, release
}

func TestQueueFullBackpressure(t *testing.T) {
	h := genNetlist(t, 20, 24, 3)
	e, release := blockingEngine(Config{Workers: 1, QueueDepth: 1})
	defer shutdownNow(t, e)

	j1, err := e.Submit(Request{Netlist: h})
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	waitState(t, j1, jobreg.StateRunning, 5*time.Second) // worker occupied
	if _, err := e.Submit(Request{Netlist: h}); err != nil {
		t.Fatalf("submit 2 (fills queue): %v", err)
	}
	if _, err := e.Submit(Request{Netlist: h}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit 3 = %v, want ErrQueueFull", err)
	}
	if got := e.Metrics().Snapshot().Counters["service.jobs_rejected"]; got != 1 {
		t.Fatalf("jobs_rejected = %d, want 1", got)
	}
	close(release)
}

func TestCancelQueuedJobIsImmediate(t *testing.T) {
	h := genNetlist(t, 20, 24, 3)
	e, release := blockingEngine(Config{Workers: 1, QueueDepth: 4})
	defer shutdownNow(t, e)

	j1, _ := e.Submit(Request{Netlist: h})
	waitState(t, j1, jobreg.StateRunning, 5*time.Second)
	j2, err := e.Submit(Request{Netlist: h})
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	if _, ok := e.Cancel(j2.ID()); !ok {
		t.Fatal("cancel: unknown job")
	}
	s := j2.Snapshot() // no waiting: a queued cancel finalizes inline
	if s.State != jobreg.StateCancelled || !errors.Is(s.Err, ErrCancelled) {
		t.Fatalf("queued cancel: state=%s err=%v", s.State, s.Err)
	}
	if _, ok := e.Cancel("job-nope"); ok {
		t.Fatal("cancel of unknown ID reported success")
	}
	close(release)
}

func TestDeadlineFailsJob(t *testing.T) {
	h := genNetlist(t, 20, 24, 3)
	e, _ := blockingEngine(Config{Workers: 1})
	defer shutdownNow(t, e)

	j, err := e.Submit(Request{Netlist: h, Options: Options{Timeout: 20 * time.Millisecond}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	s := j.Wait(context.Background())
	if s.State != jobreg.StateFailed || !errors.Is(s.Err, context.DeadlineExceeded) {
		t.Fatalf("deadline job: state=%s err=%v, want failed/DeadlineExceeded", s.State, s.Err)
	}
}

// TestNoProperCompletionIsTyped pins the one deterministic solve
// failure a valid request can meet: the job fails after a single solve,
// and errors.Is reaches core.ErrNoProperCompletion through IG-Match's
// error and through multilevel's wrap of it.
func TestNoProperCompletionIsTyped(t *testing.T) {
	e := New(Config{Workers: 1})
	defer shutdownNow(t, e)
	var solves atomic.Int64
	inner := e.solveFn
	e.solveFn = func(ctx context.Context, req Request) (*Result, error) {
		solves.Add(1)
		return inner(ctx, req)
	}
	for _, algo := range []string{AlgoIGMatch, AlgoMultilevel} {
		solves.Store(0)
		j, err := e.Submit(Request{Netlist: tinyNetlist(), Options: Options{Algo: algo}})
		if err != nil {
			t.Fatalf("%s: submit: %v", algo, err)
		}
		s := j.Wait(context.Background())
		if s.State != jobreg.StateFailed || !errors.Is(s.Err, core.ErrNoProperCompletion) {
			t.Fatalf("%s: state=%s err=%v, want failed/ErrNoProperCompletion", algo, s.State, s.Err)
		}
		if got := solves.Load(); got != 1 {
			t.Fatalf("%s: the failed job ran %d solves, want 1", algo, got)
		}
	}
}

func TestShutdownDrainsInFlight(t *testing.T) {
	h := genNetlist(t, 20, 24, 3)
	e, release := blockingEngine(Config{Workers: 1})

	j, _ := e.Submit(Request{Netlist: h})
	waitState(t, j, jobreg.StateRunning, 5*time.Second)
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if s := j.Snapshot(); s.State != jobreg.StateDone {
		t.Fatalf("in-flight job after drain: %s, want done", s.State)
	}
	if _, err := e.Submit(Request{Netlist: h}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("submit after shutdown = %v, want ErrShutdown", err)
	}
	// Shutdown is idempotent.
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

func TestShutdownDeadlineCancelsStragglers(t *testing.T) {
	h := genNetlist(t, 20, 24, 3)
	e, _ := blockingEngine(Config{Workers: 1}) // never released

	j, _ := e.Submit(Request{Netlist: h})
	waitState(t, j, jobreg.StateRunning, 5*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := e.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown = %v, want DeadlineExceeded", err)
	}
	if s := j.Snapshot(); s.State != jobreg.StateCancelled || !errors.Is(s.Err, ErrShutdown) {
		t.Fatalf("straggler: state=%s err=%v, want cancelled/ErrShutdown", s.State, s.Err)
	}
}

// TestCancelMidSweep is the headline cancellation test: a real IG-Match
// job on the largest netgen fixture (Prim2) is cancelled while running,
// must reach the cancelled state within 2 seconds, and the worker must
// remain usable for the next job.
func TestCancelMidSweep(t *testing.T) {
	cfg, ok := igpart.Benchmark("Prim2")
	if !ok {
		t.Fatal("Prim2 preset missing")
	}
	h, err := igpart.Generate(cfg)
	if err != nil {
		t.Fatalf("generate Prim2: %v", err)
	}
	e := New(Config{Workers: 1})
	defer shutdownNow(t, e)

	// Serial sweep keeps the single worker busy longest.
	j, err := e.Submit(Request{Netlist: h, Options: Options{Parallelism: 1}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, j, jobreg.StateRunning, 10*time.Second)
	time.Sleep(30 * time.Millisecond) // bite into eigensolve/sweep
	t0 := time.Now()
	if _, ok := e.Cancel(j.ID()); !ok {
		t.Fatal("cancel: unknown job")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	s := j.Wait(ctx)
	if !s.State.Terminal() {
		t.Fatalf("job not terminal %v after cancel", time.Since(t0))
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want < 2s", elapsed)
	}
	if s.State != jobreg.StateCancelled {
		t.Fatalf("state = %s (err %v), want cancelled", s.State, s.Err)
	}
	if got := e.Metrics().Snapshot().Counters["service.jobs_cancelled"]; got != 1 {
		t.Fatalf("jobs_cancelled = %d, want 1", got)
	}

	// The worker survives and serves the next job.
	small := genNetlist(t, 80, 90, 5)
	j2, err := e.Submit(Request{Netlist: small})
	if err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
	if s2 := j2.Wait(context.Background()); s2.State != jobreg.StateDone {
		t.Fatalf("post-cancel job: state=%s err=%v", s2.State, s2.Err)
	}
}

func TestOptionsNormalizeAndKey(t *testing.T) {
	if _, err := (Options{Algo: "anneal"}).normalize(); err == nil {
		t.Fatal("unknown algo accepted")
	}
	if _, err := (Options{Scheme: "bogus"}).normalize(); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := (&Engine{}).Submit(Request{}); err == nil {
		t.Fatal("nil netlist accepted")
	}

	h := genNetlist(t, 30, 36, 2)
	base, _ := Options{}.normalize()
	k1 := cacheKey(h, base)
	par, _ := Options{Parallelism: 8, Timeout: time.Minute}.normalize()
	if cacheKey(h, par) != k1 {
		t.Fatal("parallelism/timeout leaked into the cache key")
	}
	ml, _ := Options{Algo: AlgoMultilevel}.normalize()
	if cacheKey(h, ml) == k1 {
		t.Fatal("algo not part of the cache key")
	}
	ml2, _ := Options{Algo: AlgoMultilevel, Levels: 4}.normalize()
	if cacheKey(h, ml2) == cacheKey(h, ml) {
		t.Fatal("levels not part of the multilevel cache key")
	}
	// Levels is irrelevant (zeroed) for flat igmatch.
	flatLv, _ := Options{Algo: AlgoIGMatch, Levels: 5}.normalize()
	if cacheKey(h, flatLv) != k1 {
		t.Fatal("levels leaked into the flat igmatch cache key")
	}
}

// TestUnreadOptionsShareCacheKey submits a portfolio job under scheme
// unit and then paper, and a kway-spectral job at threshold 5 and then
// 0, on one netlist. Neither solve reads the option that differs, so
// each second job must come from the cache. An unknown scheme still
// fails on both algorithms.
func TestUnreadOptionsShareCacheKey(t *testing.T) {
	h := genNetlist(t, 60, 80, 5)
	e := New(Config{Workers: 1})
	defer shutdownNow(t, e)
	for _, pair := range [][2]Options{
		{{Algo: AlgoPortfolio, Scheme: "unit"}, {Algo: AlgoPortfolio, Scheme: "paper"}},
		{{Algo: AlgoKWaySpectral, K: 3, Eps: 0.1, Threshold: 5}, {Algo: AlgoKWaySpectral, K: 3, Eps: 0.1}},
	} {
		for i, o := range pair {
			j, err := e.Submit(Request{Netlist: h, Options: o})
			if err != nil {
				t.Fatalf("%s job %d: submit: %v", o.Algo, i, err)
			}
			s := j.Wait(context.Background())
			if s.State != jobreg.StateDone || s.Cached != (i == 1) {
				t.Fatalf("%s job %d (%+v): state=%s cached=%v err=%v, want done and cached=%v",
					o.Algo, i, o, s.State, s.Cached, s.Err, i == 1)
			}
		}
		bad := pair[0]
		bad.Scheme = "bogus"
		if _, err := e.Submit(Request{Netlist: h, Options: bad}); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("%s with an unknown scheme: err = %v, want ErrBadRequest", bad.Algo, err)
		}
	}
}

// TestKWayJobEndToEnd drives a balanced k-way job with pins through the
// real engine: the result must carry the multiway fields, honor the
// pins, and hit the cache on resubmission.
func TestKWayJobEndToEnd(t *testing.T) {
	h := genNetlist(t, 40, 60, 9)
	e := New(Config{Workers: 1})
	defer shutdownNow(t, e)
	req := Request{Netlist: h, Options: Options{
		Algo: AlgoKWay, K: 4, Eps: 0.1,
		Fix: []hypergraph.FixPin{
			{Module: h.ModuleName(0), Part: 3},
			{Module: h.ModuleName(1), Part: 0},
		},
	}}
	j, err := e.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	s := j.Wait(context.Background())
	if s.State != jobreg.StateDone {
		t.Fatalf("state=%s err=%v, want done", s.State, s.Err)
	}
	res := s.Result
	if res.Algo != AlgoKWay || res.K != 4 {
		t.Fatalf("algo=%s k=%d, want kway/4", res.Algo, res.K)
	}
	if len(res.Parts) != 40 || len(res.PartSizes) != 4 {
		t.Fatalf("parts=%d sizes=%d, want 40/4", len(res.Parts), len(res.PartSizes))
	}
	if res.Sides != nil {
		t.Fatalf("kway result carries bipartition sides")
	}
	for p, sz := range res.PartSizes {
		if sz == 0 || sz > res.Cap {
			t.Fatalf("part %d size %d outside (0,%d]", p, sz, res.Cap)
		}
	}
	if res.Parts[0] != 3 || res.Parts[1] != 0 {
		t.Fatalf("pins ignored: Parts[0]=%d Parts[1]=%d, want 3/0", res.Parts[0], res.Parts[1])
	}

	// Same request, pins reordered: must be a cache hit.
	req2 := req
	req2.Options.Fix = []hypergraph.FixPin{
		{Module: h.ModuleName(1), Part: 0},
		{Module: h.ModuleName(0), Part: 3},
	}
	j2, err := e.Submit(req2)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if s2 := j2.Wait(context.Background()); s2.State != jobreg.StateDone || !s2.Cached {
		t.Fatalf("resubmission: state=%s cached=%v, want done/cached", s2.State, s2.Cached)
	}
}

// TestKWaySpectralJob smokes the spectral engine through the service.
func TestKWaySpectralJob(t *testing.T) {
	h := genNetlist(t, 30, 45, 4)
	e := New(Config{Workers: 1})
	defer shutdownNow(t, e)
	j, err := e.Submit(Request{Netlist: h, Options: Options{Algo: AlgoKWaySpectral, K: 3, Eps: 0.1}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	s := j.Wait(context.Background())
	if s.State != jobreg.StateDone {
		t.Fatalf("state=%s err=%v, want done", s.State, s.Err)
	}
	if s.Result.K != 3 || len(s.Result.PartSizes) != 3 {
		t.Fatalf("K=%d sizes=%v", s.Result.K, s.Result.PartSizes)
	}
}

// TestKWayCancelMidSweep mirrors TestCancelMidSweep for the k-way
// engine: a Prim2 k=4 job cancelled while running must reach the
// cancelled state within 2 seconds.
func TestKWayCancelMidSweep(t *testing.T) {
	cfg, ok := igpart.Benchmark("Prim2")
	if !ok {
		t.Fatal("Prim2 preset missing")
	}
	h, err := igpart.Generate(cfg)
	if err != nil {
		t.Fatalf("generate Prim2: %v", err)
	}
	e := New(Config{Workers: 1})
	defer shutdownNow(t, e)
	j, err := e.Submit(Request{Netlist: h, Options: Options{
		Algo: AlgoKWay, K: 4, Eps: 0.1, Parallelism: 1,
	}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, j, jobreg.StateRunning, 10*time.Second)
	time.Sleep(30 * time.Millisecond)
	t0 := time.Now()
	if _, ok := e.Cancel(j.ID()); !ok {
		t.Fatal("cancel: unknown job")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	s := j.Wait(ctx)
	if !s.State.Terminal() {
		t.Fatalf("job not terminal %v after cancel", time.Since(t0))
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want < 2s", elapsed)
	}
	if s.State != jobreg.StateCancelled {
		t.Fatalf("state = %s (err %v), want cancelled", s.State, s.Err)
	}
}

// TestCacheHitsAnswerAtIntake holds the only worker on a stalled job
// and fills the one queue slot behind it, then resubmits a solved
// netlist and repeats a solved PATCH. Both are cache hits, so both must
// be accepted and finish done and cached while the held job still runs:
// a hit needs no worker and no queue slot.
func TestCacheHitsAnswerAtIntake(t *testing.T) {
	h := genNetlist(t, 120, 140, 9)
	// worker.stall arms once per solve: the base and the first PATCH
	// solve, the third solve stalls.
	inj := mustInjector(t, 1, fault.Rule{Point: fault.WorkerStall, Every: 3, Limit: 1})
	e := New(Config{Workers: 1, QueueDepth: 1, Fault: inj})
	defer shutdownNow(t, e)

	base := solveBase(t, e, h, Options{})
	d := smallDelta(t, h)
	first, err := e.SubmitDelta(base.ID(), d, 0)
	if err != nil {
		t.Fatalf("first PATCH: %v", err)
	}
	if s := first.Wait(context.Background()); s.State != jobreg.StateDone || s.Cached {
		t.Fatalf("first PATCH: state %s cached %v, want done uncached", s.State, s.Cached)
	}
	held, err := e.Submit(Request{Netlist: genNetlist(t, 80, 90, 5)})
	if err != nil {
		t.Fatalf("submit held job: %v", err)
	}
	waitState(t, held, jobreg.StateRunning, 5*time.Second)
	defer e.Cancel(held.ID())
	if _, err := e.Submit(Request{Netlist: genNetlist(t, 80, 90, 6)}); err != nil {
		t.Fatalf("fill the queue: %v", err)
	}
	if _, err := e.Submit(Request{Netlist: genNetlist(t, 80, 90, 7)}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("a cold job behind a full queue: err = %v, want ErrQueueFull", err)
	}

	resubmit := func() (*Job, error) { return e.Submit(Request{Netlist: h}) }
	repatch := func() (*Job, error) { return e.SubmitDelta(base.ID(), d, 0) }
	for _, hit := range []struct {
		name   string
		submit func() (*Job, error)
	}{{"resubmitted netlist", resubmit}, {"repeated PATCH", repatch}} {
		job, err := hit.submit()
		if err != nil {
			t.Fatalf("%s: %v", hit.name, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		s := job.Wait(ctx)
		cancel()
		if s.State != jobreg.StateDone || !s.Cached {
			t.Fatalf("%s behind a held worker: state %s cached %v, want done and cached",
				hit.name, s.State, s.Cached)
		}
	}
	if s := held.Snapshot(); s.State != jobreg.StateRunning {
		t.Fatalf("held job is %s, want still running", s.State)
	}
}
