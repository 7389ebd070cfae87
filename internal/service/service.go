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
//     context threading through igpart.IGMatch/MultilevelIGMatch down
//     into the sweep shards and Lanczos cycles;
//   - a content-addressed LRU result cache: the pipeline is a pure
//     deterministic function of (netlist, options), so results are
//     keyed by SHA-256 of the canonicalized netlist (for an ECO delta
//     job, the base netlist as numbered plus the canonical delta) and
//     the normalized result-determining options, with
//     hit/miss/eviction counters in the internal/obs registry;
//   - graceful drain: Shutdown stops intake, lets queued and running
//     jobs finish, and only cancels them if its own context expires.
//
// The engine is transport-agnostic; cmd/igpartd exposes it over HTTP.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"igpart"
	"igpart/internal/fault"
	"igpart/internal/hypergraph"
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
	// does not know (expired, pruned, or never existed). cmd/igpartd
	// maps it to HTTP 404.
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
	// outcome, queue rejections, cache hits/misses/evictions). Nil gets
	// a private registry, still reachable via Engine.Metrics.
	Metrics *obs.Registry
	// RetryAttempts bounds how many times a failed solve runs in total
	// (first try included). Default 2 — one retry; negative disables
	// retrying. Retrying is safe because a solve is a pure function of
	// the request and successful results are published to the cache.
	RetryAttempts int
	// RetryBaseDelay and RetryMaxDelay shape the capped exponential
	// backoff between attempts (base·2^(n−1), capped, with
	// deterministic jitter). Defaults 50ms and 2s.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// Fault arms deterministic fault-injection points in the engine
	// (worker.panic inside the solve barrier, cache.evict-storm on cache
	// stores) and is forwarded to the pipeline for eigen.noconverge and
	// sweep.slow-shard. Nil — the production default — disarms
	// everything at zero cost.
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
	if c.RetryAttempts == 0 {
		c.RetryAttempts = 2
	}
	if c.RetryAttempts < 1 {
		c.RetryAttempts = 1
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 50 * time.Millisecond
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = 2 * time.Second
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
	// deltas can warm-start from the cached result. Engine-internal:
	// the HTTP layer never serializes it.
	NetOrder []int
	// Winner is the winning contender of an AlgoPortfolio race.
	Winner string
	// Warm reports that an ECO delta job re-solved through the windowed
	// warm start; false on delta jobs means the cold fallback ran.
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
	req Request

	// The outcome, set by Finish under the lifecycle's lock.
	cached bool
	res    *Result
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

// keepFinished is how many terminal jobs stay queryable; the oldest are
// forgotten first.
const keepFinished = 1024

// Engine is the partition job engine: worker pool, bounded queue,
// result cache, and job registry.
type Engine struct {
	cfg   Config
	reg   *obs.Registry
	cache *lru
	queue chan *Job
	wg    sync.WaitGroup

	// solveFn computes a request's result, cold or ECO delta; tests
	// substitute a stub to exercise lifecycle paths deterministically.
	solveFn func(ctx context.Context, req Request) (*Result, error)
	// clock paces retry backoff; tests substitute a fake.
	clock clock

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
		queue: make(chan *Job, cfg.QueueDepth),
		clock: realClock{},
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
	return e.enqueue(req)
}

// SubmitDelta enqueues an incremental ECO re-partitioning of a finished
// job: delta d is applied to the base job's netlist and solved by
// warm-starting from the base result's cached net ordering (sweep +
// completion only — no eigensolve), falling back to a cold solve past
// the perturbation threshold. The delta job is a first-class job: an
// IG-Match request under the base's options, on the same queue,
// lifecycle, retry, solve and cache path as any other, with its own
// cache entry keyed on (base netlist as numbered, canonical delta,
// options) so equivalent re-submissions hit. Its result carries the new
// net ordering, so further deltas may chain off it.
func (e *Engine) SubmitDelta(baseID string, d igpart.NetlistDelta, timeout time.Duration) (*Job, error) {
	if timeout < 0 {
		return nil, badf("negative timeout %v", timeout)
	}
	base, ok := e.Get(baseID)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownBase, baseID)
	}
	snap := base.Snapshot()
	if snap.State != jobreg.StateDone || snap.Result == nil {
		return nil, fmt.Errorf("%w: job %s is %s", ErrNotWarmStartable, baseID, snap.State)
	}
	res := snap.Result
	if len(res.NetOrder) == 0 || res.BestRank < 1 {
		return nil, fmt.Errorf("%w: %s result (algo %s) carries no net ordering",
			ErrNotWarmStartable, baseID, res.Algo)
	}
	bh := base.req.Netlist
	if err := d.Validate(bh); err != nil {
		return nil, badf("invalid delta: %v", err)
	}
	o := base.req.Options
	o.Algo, o.Timeout = AlgoIGMatch, timeout
	// The base's options normalized once already, so their scheme is known.
	o, _ = o.normalize()
	applied, _ := d.Apply(bh)
	return e.enqueue(Request{Netlist: applied, Options: o, warm: &warmSpec{
		base:  bh,
		order: res.NetOrder,
		rank:  res.BestRank,
		delta: d,
	}})
}

// enqueue builds the job for an already-validated, normalized request
// and offers it to the queue.
func (e *Engine) enqueue(req Request) (*Job, error) {
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
	if len(e.queue) == cap(e.queue) {
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
	}
	// Register before sending, so a worker cannot finish the job before
	// it is queryable. The send cannot block: every send happens under
	// e.mu and a slot is free.
	e.jobs.Add(id, job)
	e.queue <- job
	e.mu.Unlock()
	e.reg.Counter("service.jobs_submitted").Add(1)
	e.reg.Gauge("service.queue_depth").Set(float64(len(e.queue)))
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

// run executes one job: consult the cache, solve on a miss, classify
// the outcome by the job context's cancel cause.
func (e *Engine) run(job *Job) {
	e.reg.Gauge("service.queue_depth").Set(float64(len(e.queue)))
	if !job.Start() {
		e.finalizeAborted(job)
		return
	}
	key := job.req.key()
	if res, ok := e.cache.get(key); ok {
		e.settle(job, jobreg.StateDone, res, true, nil)
		return
	}
	res, err := e.solveWithRetry(job)
	switch {
	case err == nil:
		// Publish to the cache even if a racing Cancel beat us to the
		// terminal transition: the result is valid and future identical
		// submissions should hit.
		e.cache.put(key, res)
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

// settle is the engine's one terminal transition: finish the job and,
// if this call won, count the outcome and let the registry prune —
// both before Done closes.
func (e *Engine) settle(job *Job, state jobreg.State, res *Result, cached bool, err error) {
	job.Finish(state, err, func() { job.res, job.cached = res, cached }, func() {
		e.reg.Counter(outcomeCounters[state]).Add(1)
		e.jobs.Finish(job.ID())
	})
}

// safeSolve runs one solve attempt behind the worker recover barrier: a
// panic anywhere in the pipeline (or injected at fault.WorkerPanic)
// becomes a structured *fault.PanicError instead of killing the daemon.
// Recovered panics count in service.panics_recovered and extend the
// consecutive-panic streak that Health watches; any non-panicking
// attempt resets the streak.
func (e *Engine) safeSolve(job *Job) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, e.notePanic(fault.Recovered(r))
		}
	}()
	if e.cfg.Fault.Active(fault.WorkerPanic) {
		panic("injected fault: " + string(fault.WorkerPanic))
	}
	res, err = e.solveFn(job.Context(), job.req)
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

// solveWithRetry runs up to Config.RetryAttempts solve attempts with
// capped exponential backoff between them. A solve is a pure function
// of the request and winners are published to the result cache, so
// retrying is idempotent. The loop is deadline-aware twice over: a job
// context that has fired stops the loop at once, and the backoff sleep
// itself aborts when the context fires mid-wait.
func (e *Engine) solveWithRetry(job *Job) (*Result, error) {
	// The job's jitter stream, mixed with the request seed.
	seed := fault.JitterSeed(job.ID()) ^ fault.Splitmix64(uint64(job.req.Options.Seed))
	ctx := job.Context()
	for attempt := 1; ; attempt++ {
		res, err := e.safeSolve(job)
		if err == nil || ctx.Err() != nil || attempt >= e.cfg.RetryAttempts {
			return res, err
		}
		e.reg.Counter("service.retries").Add(1)
		d := fault.BackoffDelay(attempt, e.cfg.RetryBaseDelay, e.cfg.RetryMaxDelay, seed)
		if e.clock.Sleep(ctx, d) != nil {
			// Deadline or cancel mid-backoff: surface the solve error; run()
			// classifies by the context cause.
			return nil, err
		}
	}
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
	o := req.Options
	scheme := schemes[o.Scheme]
	switch o.Algo {
	case AlgoPortfolio:
		r, err := igpart.Portfolio(req.Netlist, igpart.PortfolioOptions{
			Budget:      o.Budget,
			Accept:      o.Accept,
			Parallelism: o.Parallelism,
			Seed:        o.Seed,
			Rec:         tr,
			Ctx:         ctx,
		})
		if err != nil {
			return nil, err
		}
		return &Result{
			Algo:     o.Algo,
			Metrics:  r.Metrics,
			Sides:    append([]igpart.Side(nil), r.Partition.Sides()...),
			Lambda2:  r.Lambda2,
			BestRank: r.BestRank,
			NetOrder: r.NetOrder,
			Winner:   r.Winner,
			Stages:   tr.Finish(),
		}, nil
	case AlgoMultilevel:
		r, err := igpart.MultilevelIGMatch(req.Netlist, igpart.MultilevelOptions{
			Levels:          o.Levels,
			CoarseningRatio: o.CoarseningRatio,
			Scheme:          scheme,
			Threshold:       o.Threshold,
			Seed:            o.Seed,
			BlockSize:       o.BlockSize,
			Parallelism:     o.Parallelism,
			Rec:             tr,
			Ctx:             ctx,
			Fault:           inj,
		})
		if err != nil {
			return nil, err
		}
		return &Result{
			Algo:         o.Algo,
			Metrics:      r.Metrics,
			Sides:        append([]igpart.Side(nil), r.Partition.Sides()...),
			Levels:       r.Levels,
			CoarsestNets: r.CoarsestNets,
			Stages:       tr.Finish(),
		}, nil
	case AlgoKWay, AlgoKWaySpectral:
		// Validate resolved this once already; a failure here means the
		// request was mutated after Submit, which solve treats as fatal.
		fix, err := hypergraph.FixFromPins(req.Netlist, o.Fix, o.K)
		if err != nil {
			return nil, err
		}
		r, err := igpart.KWay(req.Netlist, o.K, igpart.KWayOptions{
			Eps:         o.Eps,
			Fixed:       fix.Part,
			Spectral:    o.Algo == AlgoKWaySpectral,
			Scheme:      scheme,
			Threshold:   o.Threshold,
			Seed:        o.Seed,
			BlockSize:   o.BlockSize,
			Parallelism: o.Parallelism,
			Rec:         tr,
			Ctx:         ctx,
			Fault:       inj,
		})
		if err != nil {
			return nil, err
		}
		return &Result{
			Algo:         o.Algo,
			Parts:        append([]int(nil), r.Part...),
			K:            r.K,
			Cap:          r.Cap,
			PartSizes:    append([]int(nil), r.Sizes...),
			SpanningNets: r.SpanningNets,
			Connectivity: r.Connectivity,
			RatioValue:   r.RatioValue,
			Stages:       tr.Finish(),
		}, nil
	default: // AlgoIGMatch; Submit normalized and validated Algo already
		opts := igpart.IGMatchOptions{
			Scheme:      scheme,
			Threshold:   o.Threshold,
			Seed:        o.Seed,
			BlockSize:   o.BlockSize,
			Parallelism: o.Parallelism,
			Rec:         tr,
			Ctx:         ctx,
			Fault:       inj,
		}
		if w := req.warm; w != nil {
			// Warm-start from the base's sweep state, or the cold fallback
			// past the perturbation threshold.
			r, err := igpart.WarmStart(w.base, igpart.IGMatchResult{NetOrder: w.order, BestRank: w.rank}, w.delta, opts)
			if err != nil {
				return nil, err
			}
			return &Result{
				Algo:        o.Algo,
				Metrics:     r.Metrics,
				Sides:       append([]igpart.Side(nil), r.Partition.Sides()...),
				BestRank:    r.BestRank,
				NetOrder:    r.NetOrder,
				Warm:        !r.Cold,
				TouchedNets: r.TouchedNets,
				Stages:      tr.Finish(),
			}, nil
		}
		r, err := igpart.IGMatch(req.Netlist, opts)
		if err != nil {
			return nil, err
		}
		return &Result{
			Algo:     o.Algo,
			Metrics:  r.Metrics,
			Sides:    append([]igpart.Side(nil), r.Partition.Sides()...),
			Lambda2:  r.Lambda2,
			BestRank: r.BestRank,
			NetOrder: r.NetOrder,
			Stages:   tr.Finish(),
		}, nil
	}
}
