// Package service turns the igpart pipeline into a long-running job
// engine: partition-as-a-service. It provides
//
//   - a bounded worker pool (default GOMAXPROCS workers) fed by a
//     bounded queue with explicit-rejection backpressure (Submit fails
//     fast with ErrQueueFull instead of blocking — the caller, e.g.
//     cmd/igpartd, maps that to HTTP 429);
//   - the job lifecycle shared with the cluster coordinator
//     (internal/jobreg: queued → running → done/failed/cancelled) with
//     per-job deadlines and cooperative cancellation, built on the
//     context threading through the engine table (internal/engine) down
//     into the sweep shards and Lanczos cycles;
//   - a content-addressed LRU result cache: the pipeline is a pure
//     deterministic function of (netlist, options), so results are
//     keyed by SHA-256 of the canonicalized netlist (for an ECO delta
//     job, the base's store key plus the canonical delta) and the
//     normalized result-determining options, with hit/miss/eviction
//     counters in the internal/obs registry. A hit is answered at
//     intake: it takes no worker and no queue slot;
//   - a netlist store for PATCH deltas: one copy of each netlist that
//     a finished job or a cached result refers to, in an LRU keyed by
//     SHA-256 of the netlist as numbered and bounded by bytes. A delta
//     is applied only on a cache miss, by the solve, and result net
//     orderings are kept in canonical net numbering, so a base that
//     hit a net-reordered twin's entry warm-starts from its own nets;
//   - graceful drain: Shutdown stops intake, lets queued and running
//     jobs finish, and only cancels them if its own context expires.
//
// The engine is transport-agnostic; cmd/igpartd exposes it over HTTP.
package service

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"igpart"
	"igpart/internal/engine"
	"igpart/internal/fault"
	"igpart/internal/jobreg"
	"igpart/internal/obs"
)

// Sentinel errors returned by the engine.
var (
	// ErrQueueFull is the backpressure signal: the queue is at capacity
	// and the job was rejected, not enqueued.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrShutdown is returned by Submit after Shutdown has begun and is
	// the cancel cause applied to jobs a timed-out drain abandons.
	ErrShutdown = errors.New("service: engine shutting down")
	// ErrCancelled is the cancel cause of a user-requested Cancel.
	ErrCancelled = errors.New("service: job cancelled")
	// ErrUnknownBase rejects a delta submission naming a job the engine
	// does not know (expired, pruned, or never existed) or whose netlist
	// the netlist store evicted. cmd/igpartd maps it to HTTP 404.
	ErrUnknownBase = errors.New("service: unknown base job")
	// ErrNotWarmStartable rejects a delta submission whose base job
	// cannot seed a warm start: not done yet, failed, or solved by an
	// algorithm that leaves no net ordering behind. cmd/igpartd maps it
	// to HTTP 409 — the request may become valid once the base finishes.
	ErrNotWarmStartable = errors.New("service: base job not warm-startable")
)

// Config sizes an Engine. The zero value is production-usable.
type Config struct {
	// Workers is the solver pool size. Default GOMAXPROCS. Each solve
	// may itself shard its sweep (Options.Parallelism), so a loaded
	// daemon typically wants Parallelism=1 jobs and Workers=GOMAXPROCS,
	// or few workers and parallel sweeps — both are supported.
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs;
	// submissions beyond it fail with ErrQueueFull. Default 64.
	QueueDepth int
	// CacheEntries sizes the content-addressed result cache. Default
	// 128; negative disables caching.
	CacheEntries int
	// DefaultTimeout is the per-job deadline applied when a request
	// carries none. 0 means no deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps per-request timeouts (and the default). 0 means
	// uncapped.
	MaxTimeout time.Duration
	// Metrics receives the engine's counters and gauges (jobs by
	// outcome, queue rejections, cache hits/misses/evictions, netlist
	// store bytes/evictions). Nil gets a private registry, still
	// reachable via Engine.Metrics.
	Metrics *obs.Registry
	// Fault arms deterministic fault-injection points in the engine
	// (worker.panic and worker.stall inside the solve barrier,
	// cache.evict-storm on cache stores) and is forwarded to the
	// pipeline for eigen.noconverge and sweep.slow-shard. Nil — the
	// production default — disarms everything at zero cost.
	Fault *fault.Injector
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 128
	}
	if c.Metrics == nil {
		c.Metrics = new(obs.Registry)
	}
	return c
}

// Result is the output of a completed job.
type Result struct {
	// Algo is the normalized algorithm that produced the result.
	Algo string
	// Metrics is the partition quality (net cut, sides, ratio cut).
	Metrics igpart.Metrics
	// Sides is the per-module side assignment.
	Sides []igpart.Side
	// Lambda2 is the IG Laplacian's second eigenvalue (AlgoIGMatch).
	Lambda2 float64
	// BestRank is the winning sweep split (AlgoIGMatch).
	BestRank int
	// NetOrder is the winning net ordering of the sweep, kept so PATCH
	// deltas can warm-start from the cached result. It lists canonical
	// net positions (hypergraph.CanonicalOrder), not the solved
	// netlist's net indices, so it serves every netlist that shares
	// the result's cache entry. Engine-internal: the HTTP layer never
	// serializes it.
	NetOrder []int
	// Winner is the winning contender of an AlgoPortfolio race.
	Winner string
	// Warm reports that an ECO delta job re-solved through the warm
	// start; false on delta jobs means the cold fallback ran.
	Warm bool
	// TouchedNets is the delta perturbation size of an ECO delta job.
	TouchedNets int
	// Levels and CoarsestNets describe the V-cycle actually built
	// (AlgoMultilevel).
	Levels       int
	CoarsestNets int
	// The fields below describe a balanced k-way result
	// (AlgoKWay/AlgoKWaySpectral); Parts is non-nil exactly then.
	Parts        []int // per-module part index in [0, K)
	K            int   // parts delivered
	Cap          int   // per-part module ceiling ⌈(1+ε)·n/K⌉ enforced
	PartSizes    []int
	SpanningNets int
	Connectivity int     // Σ over nets of (parts spanned − 1)
	RatioValue   float64 // Σ_i ext(V_i)/|V_i|
	// Stages is the solve's stage-span tree, recorded when the result
	// was computed. Cache hits return the original tree — a cached job
	// has no solve spans of its own.
	Stages obs.Stage

	// h is the netlist a fresh result partitions, set by solve when the
	// result carries a NetOrder, and canon its canonical net order when
	// intake sorted one (a cold job's). publish moves both into the
	// netlist store before the result is shared, leaving net, its store
	// key.
	h     *igpart.Netlist
	canon []int
	net   string
}

// Snapshot is an immutable view of a job's externally visible state.
type Snapshot struct {
	jobreg.Status
	Cached bool
	// Result is non-nil exactly when State == jobreg.StateDone. It is
	// shared with the cache and must be treated as read-only.
	Result *Result
}

// Job is a submitted partitioning request tracked by the engine.
type Job struct {
	*jobreg.Lifecycle
	// req holds the job's netlist (a cold job's) and warm seed (a delta
	// job's) until the job finishes; then only its options stay.
	req Request
	key string // the result-cache key, computed at intake

	// The outcome, set by Finish under the lifecycle's lock. net is the
	// store key of the job's netlist, "" when res carries no NetOrder.
	cached bool
	res    *Result
	net    string
}

// Snapshot returns the job's current externally visible state.
func (j *Job) Snapshot() Snapshot {
	var s Snapshot
	s.Status = j.Status(func() { s.Cached, s.Result = j.cached, j.res })
	return s
}

// Wait blocks until the job is terminal or ctx fires, returning the
// snapshot either way.
func (j *Job) Wait(ctx context.Context) Snapshot {
	select {
	case <-j.Done():
	case <-ctx.Done():
	}
	return j.Snapshot()
}

// keepFinished is how many terminal job records stay queryable; the
// oldest are forgotten first. It bounds records only: the netlists
// finished jobs refer to live in the byte-bounded netlist store.
const keepFinished = 1024

// Engine is the partition job engine: worker pool, bounded queue,
// result cache, netlist store, and job registry.
type Engine struct {
	cfg   Config
	reg   *obs.Registry
	cache *lru
	nets  *netStore
	queue chan *Job
	wg    sync.WaitGroup

	// solveFn computes a request's result, cold or ECO delta; tests
	// substitute a stub to exercise lifecycle paths deterministically.
	solveFn func(ctx context.Context, req Request) (*Result, error)

	jobs *jobreg.Registry[*Job]

	mu          sync.Mutex
	closed      bool
	panicStreak int // consecutive panicking solves, for Health
}

// New starts an engine with cfg's worker pool running.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:   cfg,
		reg:   cfg.Metrics,
		cache: newLRU(cfg.CacheEntries, cfg.Metrics, cfg.Fault),
		nets:  newNetStore(cfg.Metrics),
		queue: make(chan *Job, cfg.QueueDepth),
		jobs:  jobreg.New[*Job](keepFinished),
	}
	// The solve closure binds the engine's injector so the pipeline's
	// own points (eigen.noconverge, sweep.slow-shard) share one stream.
	e.solveFn = func(ctx context.Context, req Request) (*Result, error) {
		return solve(ctx, req, cfg.Fault, e.reg)
	}
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e
}

// Metrics returns the engine's metrics registry.
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// CacheLen returns the number of cached results.
func (e *Engine) CacheLen() int { return e.cache.len() }

// Submit validates and enqueues a request. It never blocks: a full
// queue rejects with ErrQueueFull (backpressure), an engine that began
// shutting down rejects with ErrShutdown.
func (e *Engine) Submit(req Request) (*Job, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	norm, err := req.Options.normalize()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	req.Options = norm
	key, canon := coldKey(req.Netlist, norm)
	req.canon = canon
	return e.enqueue(req, key)
}

// SubmitDelta enqueues an incremental ECO re-partitioning of a finished
// job: delta d is applied to the base job's netlist and solved by
// warm-starting from the base result's cached net ordering (sweep +
// completion only — no eigensolve), falling back to a cold solve past
// the perturbation threshold. The delta job is a first-class job: an
// IG-Match request under the base's options, on the same queue,
// lifecycle, solve and cache path as any other, with its own
// cache entry keyed on (base store key, canonical delta, options) so
// equivalent re-submissions hit. The delta is applied only on a miss,
// by the solve; a hit shares the netlist the first solve built. Its
// result carries the new net ordering, so further deltas may chain off
// it. A base whose netlist the store evicted is as unknown as a pruned
// one.
func (e *Engine) SubmitDelta(baseID string, d igpart.NetlistDelta, timeout time.Duration) (*Job, error) {
	if timeout < 0 {
		return nil, badf("negative timeout %v", timeout)
	}
	base, ok := e.Get(baseID)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownBase, baseID)
	}
	var res *Result
	var net string
	st := base.Status(func() { res, net = base.res, base.net })
	if st.State != jobreg.StateDone || res == nil {
		return nil, fmt.Errorf("%w: job %s is %s", ErrNotWarmStartable, baseID, st.State)
	}
	if len(res.NetOrder) == 0 || res.BestRank < 1 {
		return nil, fmt.Errorf("%w: %s result (algo %s) carries no net ordering",
			ErrNotWarmStartable, baseID, res.Algo)
	}
	bn, ok := e.nets.get(net)
	if !ok {
		return nil, fmt.Errorf("%w: %q (its netlist was evicted)", ErrUnknownBase, baseID)
	}
	if err := d.Validate(bn.h); err != nil {
		return nil, badf("invalid delta: %v", err)
	}
	// A valid delta removes distinct nets and Apply keeps every base
	// module, so the applied netlist's size is known without applying.
	if m := bn.h.NumNets() - len(d.RemoveNets) + len(d.AddNets); m < 2 {
		return nil, badf("the IG-Match sweep needs at least 2 nets, the delta leaves %d", m)
	}
	o := base.req.Options
	o.Algo, o.Timeout = AlgoIGMatch, timeout
	// The base's options normalized once already, so their scheme is known.
	o, _ = o.normalize()
	return e.enqueue(Request{Options: o, warm: &warmSpec{
		base:  bn,
		order: res.NetOrder,
		rank:  res.BestRank,
		delta: d,
	}}, deltaCacheKey(net, d, o))
}

// enqueue builds the job for an already-validated, normalized request
// with cache key key. A cache hit is settled here, done and cached,
// without a worker or a queue slot; a miss is offered to the queue.
func (e *Engine) enqueue(req Request, key string) (*Job, error) {
	timeout := req.Options.Timeout
	if timeout <= 0 {
		timeout = e.cfg.DefaultTimeout
	}
	if e.cfg.MaxTimeout > 0 && (timeout <= 0 || timeout > e.cfg.MaxTimeout) {
		timeout = e.cfg.MaxTimeout
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrShutdown
	}
	id := e.jobs.NextID("job")
	hit, cached := e.cache.get(key)
	if !cached && len(e.queue) == cap(e.queue) {
		e.mu.Unlock()
		e.reg.Counter("service.jobs_rejected").Add(1)
		return nil, ErrQueueFull
	}
	// The deadline runs from submission: a job stuck behind a full queue
	// burns its budget too, so callers get a bounded answer time no
	// matter where the time goes.
	job := &Job{
		Lifecycle: jobreg.NewLifecycle(context.Background(), id, timeout),
		req:       req,
		key:       key,
	}
	// Register before sending, so a worker cannot finish the job before
	// it is queryable. The send cannot block: every send happens under
	// e.mu and a slot is free.
	e.jobs.Add(id, job)
	if !cached {
		e.queue <- job
	}
	e.mu.Unlock()
	e.reg.Counter("service.jobs_submitted").Add(1)
	if cached {
		e.settle(job, jobreg.StateDone, hit, true, nil)
	} else {
		e.reg.Gauge("service.queue_depth").Set(float64(len(e.queue)))
	}
	return job, nil
}

// Get returns the job with the given ID.
func (e *Engine) Get(id string) (*Job, bool) { return e.jobs.Get(id) }

// Cancel requests cooperative cancellation of the job: a queued job is
// finalized immediately, a running one stops at the next sweep-split or
// Lanczos-cycle poll. It returns the job it resolved, so callers never
// look the ID up a second time (finished jobs may be pruned in between),
// and reports whether the ID was known.
func (e *Engine) Cancel(id string) (*Job, bool) {
	j, ok := e.Get(id)
	if !ok {
		return nil, false
	}
	j.Cancel(ErrCancelled)
	if j.Status(nil).State == jobreg.StateQueued {
		// Don't wait for a worker to drain it from the queue; when the
		// worker does, Start sees the terminal state and moves on.
		e.settle(j, jobreg.StateCancelled, nil, false, ErrCancelled)
	}
	return j, true
}

// Shutdown stops intake and drains: queued and running jobs keep
// running to completion. If ctx fires first the remaining jobs are
// cancelled (cause ErrShutdown) and — because cancellation is
// cooperative down to split/cycle granularity — the workers still exit
// promptly; the ctx error is returned. Safe to call more than once.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.queue)
	}
	e.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		for _, j := range e.jobs.Jobs() {
			j.Cancel(ErrShutdown)
		}
		<-drained
		return ctx.Err()
	}
}

// worker drains the queue until Shutdown closes it.
func (e *Engine) worker() {
	defer e.wg.Done()
	for job := range e.queue {
		e.run(job)
	}
}

// run executes one job: consult the cache for a miss that an identical
// job filled while this one queued, solve otherwise, classify the
// outcome by the job context's cancel cause.
func (e *Engine) run(job *Job) {
	e.reg.Gauge("service.queue_depth").Set(float64(len(e.queue)))
	if !job.Start() {
		e.finalizeAborted(job)
		return
	}
	if res, ok := e.cache.filled(job.key); ok {
		e.settle(job, jobreg.StateDone, res, true, nil)
		return
	}
	res, err := e.safeSolve(job)
	switch {
	case err == nil:
		// Publish even if a racing Cancel beat us to the terminal
		// transition: the result is valid and future identical
		// submissions should hit.
		e.publish(job.key, res)
		e.settle(job, jobreg.StateDone, res, false, nil)
	case job.Context().Err() != nil:
		e.finalizeAborted(job)
	default:
		e.settle(job, jobreg.StateFailed, nil, false, err)
	}
}

// outcomeCounters names the counter each terminal state increments.
var outcomeCounters = map[jobreg.State]string{
	jobreg.StateDone:      "service.jobs_completed",
	jobreg.StateFailed:    "service.jobs_failed",
	jobreg.StateCancelled: "service.jobs_cancelled",
}

// publish readies a fresh result for sharing and caches it under key.
// A result that carries a NetOrder keeps the netlist it partitions in
// the store, records the store key, and has its NetOrder turned into
// canonical positions; an ordering that does not fit that netlist is
// dropped, so a published NetOrder always has its netlist's key.
func (e *Engine) publish(key string, res *Result) {
	if len(res.NetOrder) > 0 {
		if h := res.h; h != nil && len(res.NetOrder) == h.NumNets() {
			n := e.nets.put(h, res.canon)
			res.net, res.NetOrder = n.key, n.canonical(res.NetOrder)
		} else {
			res.NetOrder = nil
		}
	}
	res.h, res.canon = nil, nil
	e.cache.put(key, res)
}

// settle is the engine's one terminal transition: finish the job and,
// if this call won, count the outcome and let the registry prune —
// both before Done closes. A job done with a NetOrder keeps its
// netlist's store key: the one its result records, or for a cold cache
// hit its own netlist's, which may number the nets unlike the netlist
// that filled the entry. Every job drops its netlist and warm seed.
func (e *Engine) settle(job *Job, state jobreg.State, res *Result, cached bool, err error) {
	var net string
	if res != nil && len(res.NetOrder) > 0 {
		net = res.net
		var own *igpart.Netlist
		var canon []int
		if cached {
			// Under the job's lock: a Cancel racing an intake hit may
			// settle the job first and drop its netlist.
			job.Update(func() { own, canon = job.req.Netlist, job.req.canon })
		}
		if own != nil {
			net = e.nets.put(own, canon).key
		}
	}
	job.Finish(state, err, func() {
		job.res, job.cached, job.net = res, cached, net
		job.req.Netlist, job.req.warm, job.req.canon = nil, nil, nil
	}, func() {
		e.reg.Counter(outcomeCounters[state]).Add(1)
		e.jobs.Finish(job.ID())
	})
}

// safeSolve runs the job's one solve behind the worker recover barrier:
// a panic anywhere in the pipeline (or injected at fault.WorkerPanic)
// becomes a structured *fault.PanicError instead of killing the daemon.
// Recovered panics count in service.panics_recovered and extend the
// consecutive-panic streak that Health watches; any non-panicking
// solve resets the streak. A failed solve is not run again: it is a
// pure function of the request, so a second run fails the same way.
func (e *Engine) safeSolve(job *Job) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, e.notePanic(fault.Recovered(r))
		}
	}()
	if e.cfg.Fault.Active(fault.WorkerPanic) {
		panic("injected fault: " + string(fault.WorkerPanic))
	}
	ctx := job.Context()
	if e.cfg.Fault.Active(fault.WorkerStall) {
		// Hold the job running until it is cancelled or its deadline
		// passes; run classifies it by the cause.
		<-ctx.Done()
		return nil, context.Cause(ctx)
	}
	res, err = e.solveFn(ctx, job.req)
	e.mu.Lock()
	e.panicStreak = 0
	e.mu.Unlock()
	return res, err
}

// notePanic records a recovered solve panic and returns it.
func (e *Engine) notePanic(pe *fault.PanicError) error {
	e.reg.Counter("service.panics_recovered").Add(1)
	e.mu.Lock()
	e.panicStreak++
	e.reg.Gauge("service.panic_streak").Set(float64(e.panicStreak))
	e.mu.Unlock()
	return pe
}

// finalizeAborted finishes a job whose context fired, classifying by
// cause: an explicit Cancel (or shutdown abandonment) is "cancelled", a
// deadline expiry is "failed" with DeadlineExceeded.
func (e *Engine) finalizeAborted(job *Job) {
	cause := context.Cause(job.Context())
	if errors.Is(cause, context.DeadlineExceeded) {
		e.settle(job, jobreg.StateFailed, nil, false, fmt.Errorf("service: job deadline exceeded: %w", context.DeadlineExceeded))
		return
	}
	e.settle(job, jobreg.StateCancelled, nil, false, cause)
}

// foldMetrics adds a solve trace's registry counters into the
// engine-wide registry, so pipeline-level counters (the portfolio
// race and warm-start tallies) surface on the daemon's /metrics
// instead of dying with the per-job trace. Gauges overwrite —
// last solve wins, which is the natural reading for e.g. the
// winner-ratio gauge.
func foldMetrics(dst *obs.Registry, tr *igpart.Trace) {
	if dst == nil || tr == nil {
		return
	}
	snap := tr.Metrics().Snapshot()
	for name, v := range snap.Counters {
		dst.Counter(name).Add(v)
	}
	for name, v := range snap.Gauges {
		dst.Gauge(name).Set(v)
	}
}

// solve runs the real pipeline for a normalized request, recording the
// stage-span tree into the result under a root span named "solve-delta"
// for an ECO delta job and "solve" for any other. inj forwards the
// engine's fault injector into the pipeline; nil means injection off;
// reg receives the solve's pipeline counters (see foldMetrics).
func solve(ctx context.Context, req Request, inj *fault.Injector, reg *obs.Registry) (*Result, error) {
	root := "solve"
	if req.warm != nil {
		root = "solve-delta"
	}
	tr := igpart.NewTrace(root)
	defer foldMetrics(reg, tr)
	// Validate resolved the pins once already; a failure here means the
	// request was mutated after Submit, which solve treats as fatal.
	fixed, err := req.Options.pins(req.Netlist)
	if err != nil {
		return nil, err
	}
	s := req.Options.spec(fixed)
	s.Rec, s.Ctx, s.Fault = tr, ctx, inj
	h := req.Netlist
	if w := req.warm; w != nil {
		// A delta job warm-starts from the base's sweep state, or runs the
		// cold fallback past the perturbation threshold. The solve applies
		// the delta; the netlist it builds becomes the job's.
		h = w.base.h
		s.Warm = &engine.Warm{Order: w.base.numbered(w.order), Rank: w.rank, Delta: w.delta}
	}
	out, err := engine.Run(req.Options.Algo, h, s)
	if err != nil {
		return nil, err
	}
	kw := out.KWay
	res := &Result{
		Algo: req.Options.Algo, Metrics: out.Metrics, Stages: tr.Finish(),
		Lambda2: out.Lambda2, BestRank: out.BestRank, NetOrder: out.NetOrder, Winner: out.Race.Winner,
		Warm: req.warm != nil && !out.Cold, TouchedNets: out.TouchedNets,
		Levels: out.Levels, CoarsestNets: out.CoarsestNets,
		Parts: append([]int(nil), kw.Part...), K: kw.K, Cap: kw.Cap, PartSizes: append([]int(nil), kw.Sizes...),
		SpanningNets: kw.SpanningNets, Connectivity: kw.Connectivity, RatioValue: kw.RatioValue,
		h: cmp.Or(out.H, req.Netlist), canon: req.canon,
	}
	if out.Partition != nil {
		res.Sides = append([]igpart.Side(nil), out.Partition.Sides()...)
	}
	return res, nil
}
