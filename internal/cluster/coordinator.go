// Package cluster is igpartd's distributed tier: a coordinator that
// routes partitioning jobs across a fleet of igpartd backends by
// consistent hashing on the netlist's content address, fails work over
// when a backend dies, and journals accepted jobs durably so its own
// restart loses nothing; a warm standby tailing the journal under a
// leadership lease keeps the control plane itself available.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"igpart/internal/fault"
	"igpart/internal/jobreg"
	"igpart/internal/obs"
)

// Sentinel errors of the coordinator.
var (
	// ErrShutdown rejects submissions after Shutdown began.
	ErrShutdown = errors.New("cluster: coordinator shutting down")
	// ErrCancelled is the cancel cause of a user-requested Cancel.
	ErrCancelled = errors.New("cluster: job cancelled")
	// ErrUnknownBase rejects a delta naming a cluster job the
	// coordinator does not track.
	ErrUnknownBase = errors.New("cluster: unknown base job")
	// ErrNotWarmStartable rejects a delta whose base job cannot seed a
	// warm start on its backend: not done, or the backend lost it.
	ErrNotWarmStartable = errors.New("cluster: base job not warm-startable")
	// ErrJournal wraps a journal write that failed at intake: nothing
	// of the submission was accepted.
	ErrJournal = errors.New("journal write failed")
	// errAborted is the internal cancel cause of a crash-style abort
	// (drain deadline expired): runners exit without journaling a
	// completion, leaving their jobs for the next boot's replay.
	errAborted = errors.New("cluster: coordinator aborted")
)

// maxInflight bounds concurrently dispatched jobs; accepted jobs beyond
// it wait, already journaled.
const maxInflight = 128

// Config sizes a Coordinator. Backends is the only required field.
type Config struct {
	// Backends is the boot-time fleet, routed by consistent hashing.
	// UpdateBackends (or the backends-file watcher) changes it live.
	Backends []Backend
	// Attempts bounds submissions per job across failover hops
	// (default 2·current fleet size: every backend gets a second
	// chance after a full lap of backoff).
	Attempts int
	// PollInterval paces job status polls (default 50ms).
	PollInterval time.Duration
	// ProbeInterval paces the background /readyz prober; negative
	// disables it (health then updates only from request outcomes),
	// 0 means the default 500ms.
	ProbeInterval time.Duration
	// RetryBaseDelay and RetryMaxDelay shape the capped exponential
	// backoff between failover hops (defaults 100ms and 2s), computed
	// by the shared fault.BackoffDelay machinery.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// MinDwell is the flapping guard for dynamic membership: a backend
	// re-added within MinDwell of its removal is held out of the ring
	// until the dwell passes (default 5s; negative disables).
	MinDwell time.Duration
	// Metrics receives the coordinator's counters and gauges; nil gets
	// a private registry.
	Metrics *obs.Registry
	// Journal is the durable intake log; nil runs without durability.
	Journal *Journal
	// Fault arms the coordinator-side chaos points (coord.crash); nil
	// disables them.
	Fault *fault.Injector
	// HA, when set, makes the coordinator maintain the leadership lease
	// it was booted with: renew at TTL/3, depose itself if the lock
	// file stops naming it.
	HA *HAConfig
}

// HAConfig carries the leadership state a coordinator must keep alive.
type HAConfig struct {
	// Lease is the lease held at boot, from TakeLeadership.
	Lease Lease
	// TTL is the lease horizon; renewals push the deadline this far
	// into the future (default DefaultLeaseTTL).
	TTL time.Duration
	// LockPath is the O_EXCL leader lock file (LockPath(journalPath)).
	LockPath string
}

func (c Config) withDefaults() Config {
	if c.PollInterval <= 0 {
		c.PollInterval = 50 * time.Millisecond
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.MinDwell == 0 {
		c.MinDwell = 5 * time.Second
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 100 * time.Millisecond
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = 2 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = new(obs.Registry)
	}
	return c
}

// Snapshot is the externally visible state of a cluster job. A cluster
// job is running from its first submission attempt onward: routing,
// failover hops and backoff all count as running time.
type Snapshot struct {
	jobreg.Status
	Batch string
	// Backend is the node currently (or last) responsible for the job;
	// BackendJob its job ID there.
	Backend    string
	BackendJob string
	// Attempts counts submissions tried; Resubmits the failover hops
	// beyond the first.
	Attempts  int
	Resubmits int
	// Cached reports the backend served the result from its cache.
	Cached bool
	// Result is the backend's result JSON, relayed verbatim.
	Result json.RawMessage
}

// Job is one routed partitioning request tracked by the coordinator.
// Its Done channel stays open across a crash-style abort: such jobs
// complete on the next boot.
type Job struct {
	*jobreg.Lifecycle
	batch string
	key   string
	body  json.RawMessage

	// ephemeral jobs (ECO deltas) are never journaled: their warm-start
	// state is node-local and cannot be re-pinned by a fresh boot, so
	// finish() skips the completion record too.
	ephemeral bool

	// Guarded by the lifecycle's lock.
	backend    string
	backendJob string
	attempts   int
	resubmits  int
	cached     bool
	result     json.RawMessage
}

// Snapshot returns the job's current externally visible state.
func (j *Job) Snapshot() Snapshot {
	s := Snapshot{Batch: j.batch}
	s.Status = j.Status(func() {
		s.Backend, s.BackendJob = j.backend, j.backendJob
		s.Attempts, s.Resubmits = j.attempts, j.resubmits
		s.Cached, s.Result = j.cached, j.result
	})
	return s
}

// Batch groups jobs accepted by one SubmitBatch call.
type Batch struct {
	ID   string
	Jobs []*Job
}

// keepFinished is how many terminal jobs stay queryable; the oldest are
// forgotten first.
const keepFinished = 4096

// Coordinator routes jobs across the backend fleet: consistent-hash
// placement, health-aware failover with bounded backed-off
// resubmission, and a durable journal so accepted work survives a
// coordinator restart. The fleet itself is dynamic — UpdateBackends
// swaps the ring and client set live, draining removed backends'
// in-flight jobs through the ordinary failover path.
type Coordinator struct {
	cfg     Config
	reg     *obs.Registry
	journal *Journal

	// topoMu guards the routable topology. Rings are immutable, so a
	// membership change builds a new ring and swaps the pointer;
	// runners holding an old ring's route simply fail over into the
	// new topology when their backend disappears from clients.
	topoMu   sync.RWMutex
	ring     *Ring
	backends []Backend
	clients  map[string]*client
	removed  map[string]time.Time // name → removal time, for the flap guard

	ctx       context.Context
	abort     context.CancelCauseFunc
	wg        sync.WaitGroup // job runners
	probeWG   sync.WaitGroup
	probeStop chan struct{}
	leaseWG   sync.WaitGroup
	leaseStop chan struct{}
	stopOnce  sync.Once
	sem       chan struct{} // maxInflight dispatch slots

	jobs *jobreg.Registry[*Job]

	mu     sync.Mutex
	closed bool
}

// New builds a coordinator over the configured backends and starts its
// health prober (and, under HA, its lease-renewal loop). Call Recover
// next when booting with a journal.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	names := make([]string, len(cfg.Backends))
	for i, b := range cfg.Backends {
		names[i] = b.Name
	}
	ring, err := NewRing(names)
	if err != nil {
		return nil, err
	}
	ctx, abort := context.WithCancelCause(context.Background())
	c := &Coordinator{
		cfg:       cfg,
		reg:       cfg.Metrics,
		ring:      ring,
		backends:  append([]Backend(nil), cfg.Backends...),
		clients:   make(map[string]*client, len(cfg.Backends)),
		removed:   make(map[string]time.Time),
		journal:   cfg.Journal,
		ctx:       ctx,
		abort:     abort,
		probeStop: make(chan struct{}),
		leaseStop: make(chan struct{}),
		sem:       make(chan struct{}, maxInflight),
		jobs:      jobreg.New[*Job](keepFinished),
	}
	for _, b := range cfg.Backends {
		c.clients[b.Name] = newClient(b)
	}
	c.reg.Gauge("cluster.backends_healthy").Set(float64(len(cfg.Backends)))
	c.reg.Gauge("cluster.backends_total").Set(float64(len(cfg.Backends)))
	if cfg.ProbeInterval > 0 {
		c.probeWG.Add(1)
		go c.prober()
	}
	if cfg.HA != nil {
		c.leaseWG.Add(1)
		go c.renewLease()
	}
	return c, nil
}

// Metrics returns the coordinator's metrics registry.
func (c *Coordinator) Metrics() *obs.Registry { return c.reg }

// Ring returns the current routing ring (immutable; a membership
// change swaps in a new one).
func (c *Coordinator) Ring() *Ring {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	return c.ring
}

// attemptBudget is the per-job failover budget: the configured cap, or
// two laps of the current fleet.
func (c *Coordinator) attemptBudget() int {
	if c.cfg.Attempts > 0 {
		return c.cfg.Attempts
	}
	c.topoMu.RLock()
	n := len(c.backends)
	c.topoMu.RUnlock()
	if n == 0 {
		n = 1
	}
	return 2 * n
}

// renewLease keeps the leadership lease alive. Every TTL/3 it checks
// the lock file still names this coordinator — if not, a standby
// fenced us out, and the only safe move is to depose: stop intake and
// abort runners crash-style, leaving unfinished jobs journaled for the
// new leader's replay. A failed renewal write is retried on the next
// tick; if the writes keep failing, the lease expires and the standby
// takes over, which is the designed outcome for a leader that lost its
// disk.
func (c *Coordinator) renewLease() {
	defer c.leaseWG.Done()
	ha := c.cfg.HA
	ttl := ha.TTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	interval := ttl / 3
	if interval <= 0 {
		interval = time.Second
	}
	c.reg.Gauge("cluster.lease.term").Set(float64(ha.Lease.Term))
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.leaseStop:
			return
		case <-t.C:
		}
		if owner, err := readLockOwner(ha.LockPath); err != nil || owner != ha.Lease.Owner {
			c.reg.Counter("cluster.lease.lost").Add(1)
			c.depose()
			return
		}
		l := Lease{Term: ha.Lease.Term, Owner: ha.Lease.Owner, Deadline: time.Now().Add(ttl)}
		if err := c.journal.Lease(l); err != nil {
			c.reg.Counter("cluster.lease.write_errors").Add(1)
			continue
		}
		c.reg.Counter("cluster.lease.renewals").Add(1)
	}
}

// depose stops this coordinator as if it had crashed: intake closes,
// runners abort without journaling completions, and the journaled
// unfinished set is left for the successor's replay. Used when a
// standby fences us out and by the coord.crash chaos point.
func (c *Coordinator) depose() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.abort(errAborted)
}

// prober re-probes every backend's /readyz on a fixed cadence so dead
// nodes are skipped at routing time rather than discovered one failed
// submission at a time.
func (c *Coordinator) prober() {
	defer c.probeWG.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.probeStop:
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

// probeAll probes all backends concurrently and updates the healthy
// gauge. Each probe carries its own probeTimeout-bounded context (see
// client.probe), so one hung backend delays the round by at most that
// timeout instead of the full requestTimeout.
func (c *Coordinator) probeAll() {
	c.topoMu.RLock()
	clients := make([]*client, 0, len(c.clients))
	for _, cl := range c.clients {
		clients = append(clients, cl)
	}
	c.topoMu.RUnlock()
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			if !cl.probe(c.ctx) {
				c.reg.Counter("cluster.probe.failures").Add(1)
			}
		}(cl)
	}
	wg.Wait()
	healthy := 0
	for _, cl := range clients {
		if cl.Healthy() {
			healthy++
		}
	}
	c.reg.Gauge("cluster.backends_healthy").Set(float64(healthy))
}

// Submit accepts one job: journal the acceptance durably, then route
// and dispatch it. key is the routing key — the hex SHA-256 of the
// netlist's CanonicalBytes — and body the backend-ready request JSON
// (netlist inlined, so the backend needs no shared filesystem).
func (c *Coordinator) Submit(key string, body json.RawMessage) (*Job, error) {
	jobs, err := c.accept("", []string{key}, []json.RawMessage{body})
	if err != nil {
		return nil, err
	}
	return jobs[0], nil
}

// SubmitBatch accepts many jobs as one batch, all or nothing: every job
// is journaled before any is dispatched. Per-job completion is observed
// via (*Job).Done.
func (c *Coordinator) SubmitBatch(keys []string, bodies []json.RawMessage) (*Batch, error) {
	if len(keys) != len(bodies) {
		return nil, fmt.Errorf("cluster: %d keys for %d bodies", len(keys), len(bodies))
	}
	id := c.jobs.NextID("batch")
	jobs, err := c.accept(id, keys, bodies)
	if err != nil {
		return nil, err
	}
	c.reg.Counter("cluster.batches").Add(1)
	return &Batch{ID: id, Jobs: jobs}, nil
}

// accept journals every job, then dispatches them all. An unjournaled
// acceptance must not be acknowledged — accepted == durable is the
// point of the journal — so a write failing part way retracts the
// journaled prefix (completion records as cancelled, so no replay runs
// them), dispatches nothing, and returns ErrJournal.
func (c *Coordinator) accept(batch string, keys []string, bodies []json.RawMessage) ([]*Job, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrShutdown
	}
	ids := make([]string, len(keys))
	for i := range ids {
		ids[i] = c.jobs.NextID("cjob")
	}
	c.mu.Unlock()
	for i, id := range ids {
		if err := c.journal.Accept(id, batch, keys[i], bodies[i]); err != nil {
			for _, prev := range ids[:i] {
				if c.journal.Complete(prev, jobreg.StateCancelled) != nil {
					// Best effort: an unretracted accept replays on the next
					// boot, exactly like a crash right after it.
					c.reg.Counter("cluster.journal.write_errors").Add(1)
				}
			}
			return nil, fmt.Errorf("%w: %w", ErrJournal, err)
		}
	}
	if c.cfg.Fault.Active(fault.CoordCrash) {
		// Die between journaling and dispatching — the worst-timed crash:
		// the records are durable but no backend has seen the jobs. The
		// successor's replay must resurface them under these exact IDs.
		c.reg.Counter("cluster.coord.crashes").Add(1)
		c.depose()
		return nil, ErrShutdown
	}
	jobs := make([]*Job, len(ids))
	for i, id := range ids {
		jobs[i] = c.start(id, batch, keys[i], bodies[i])
	}
	return jobs, nil
}

// SubmitDelta routes an ECO delta to the backend holding the base
// job's warm-start state. Routing is pinned, not ring-hashed: the base
// result's cached net ordering lives only in the engine cache of the
// node that solved it, so the delta must land there and a dead node
// fails the delta instead of failing over (the caller re-submits the
// base elsewhere and re-PATCHes). The backend call happens
// synchronously so its 400/404/409 verdicts relay to the caller; the
// returned job then polls to completion like any other. Delta jobs are
// ephemeral — never journaled — because a restarted coordinator could
// not re-pin them.
func (c *Coordinator) SubmitDelta(ctx context.Context, baseID string, body json.RawMessage) (*Job, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, ErrShutdown
	}
	base, ok := c.jobs.Get(baseID)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownBase, baseID)
	}
	snap := base.Snapshot()
	if snap.State != jobreg.StateDone || snap.Backend == "" || snap.BackendJob == "" {
		return nil, fmt.Errorf("%w: job %s is %s", ErrNotWarmStartable, baseID, snap.State)
	}
	c.topoMu.RLock()
	cl, ok := c.clients[snap.Backend]
	c.topoMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: backend %s left the fleet", ErrNotWarmStartable, snap.Backend)
	}
	bid, status, err := cl.patch(ctx, snap.BackendJob, body)
	switch {
	case err != nil && (status == http.StatusNotFound || status == http.StatusConflict):
		// The backend no longer holds (or cannot warm-start from) the
		// base job — typically it restarted and lost its registry.
		return nil, fmt.Errorf("%w: %v", ErrNotWarmStartable, err)
	case err != nil:
		return nil, err
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		// Accepted on the backend but the coordinator is going away; the
		// backend still runs it, we just cannot track it.
		return nil, ErrShutdown
	}
	id := c.jobs.NextID("cjob")
	c.mu.Unlock()

	j := &Job{
		Lifecycle:  jobreg.NewLifecycle(c.ctx, id, 0),
		key:        snap.ID, // lineage, not a ring key: deltas never route
		body:       body,
		ephemeral:  true,
		backend:    snap.Backend,
		backendJob: bid,
		attempts:   1,
	}
	j.Start() // the backend already runs it
	c.jobs.Add(id, j)
	c.reg.Counter("cluster.deltas_submitted").Add(1)
	c.dispatch(j, func() { c.runPinned(j, cl) })
	return j, nil
}

// dispatch runs fn for job j on its own goroutine, holding one of the
// maxInflight dispatch slots; a job whose context dies while it waits
// for a slot is finalized instead.
func (c *Coordinator) dispatch(j *Job, fn func()) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		select {
		case c.sem <- struct{}{}:
		case <-j.Context().Done():
			c.finishAborted(j)
			return
		}
		c.reg.Gauge("cluster.jobs_inflight").Set(float64(len(c.sem)))
		fn()
		<-c.sem
		c.reg.Gauge("cluster.jobs_inflight").Set(float64(len(c.sem)))
	}()
}

// runPinned drives a delta job already accepted by its pinned backend:
// poll to terminal, no failover.
func (c *Coordinator) runPinned(j *Job, cl *client) {
	bj, err := c.pollUntilTerminal(j, cl, j.backendJob)
	switch {
	case err != nil && j.Context().Err() != nil:
		c.cancelBackend(cl, j.backendJob)
		c.finishAborted(j)
	case err != nil:
		c.finish(j, jobreg.StateFailed, nil,
			fmt.Errorf("cluster: pinned backend %s lost the delta job: %w", cl.b.Name, err))
	default:
		c.finish(j, bj.State, bj, nil)
	}
}

// start registers and dispatches a job (newly accepted or replayed).
func (c *Coordinator) start(id, batch, key string, body json.RawMessage) *Job {
	j := &Job{
		Lifecycle: jobreg.NewLifecycle(c.ctx, id, 0),
		batch:     batch,
		key:       key,
		body:      body,
	}
	c.jobs.Add(id, j)
	c.reg.Counter("cluster.jobs_submitted").Add(1)
	c.dispatch(j, func() { c.run(j) })
	return j
}

// Recover replays journal records from boot: every accepted job with
// no completion record is resubmitted under its original ID, and the
// ID counter advances past everything seen so new IDs never collide.
// Completed jobs are NOT re-run — their completion records prove the
// work was delivered. Returns the number of jobs resubmitted.
func (c *Coordinator) Recover(recs []Record) int {
	c.jobs.Advance(maxSeq(recs))
	unfinished := Unfinished(recs)
	for _, r := range unfinished {
		c.start(r.Job, r.Batch, r.Key, r.Body)
	}
	c.reg.Counter("cluster.journal.replayed").Add(int64(len(unfinished)))
	return len(unfinished)
}

// Get returns the job with the given ID.
func (c *Coordinator) Get(id string) (*Job, bool) { return c.jobs.Get(id) }

// Cancel requests cancellation of a job: the runner stops at its next
// step and best-effort cancels the backend copy. It returns the job it
// resolved, so callers never look the ID up a second time (finished
// jobs may be pruned in between), and reports whether the ID was known.
func (c *Coordinator) Cancel(id string) (*Job, bool) {
	j, ok := c.Get(id)
	if ok {
		j.Cancel(ErrCancelled)
	}
	return j, ok
}

// run drives one job to a terminal state: submit to the ring owner,
// poll to completion, and on node death resubmit to the next backend
// in ring order with capped, jittered backoff — at most cfg.Attempts
// submissions in total.
func (c *Coordinator) run(j *Job) {
	if !j.Start() {
		c.finishAborted(j)
		return
	}
	ctx := j.Context()
	order := c.Ring().Route(j.key)
	seed := fault.JitterSeed(j.ID())
	var lastErr error
	budget := c.attemptBudget()
	for attempt := 1; attempt <= budget; attempt++ {
		if ctx.Err() != nil {
			c.finishAborted(j)
			return
		}
		if attempt > 1 {
			c.reg.Counter("cluster.failover.resubmits").Add(1)
			j.Update(func() { j.resubmits++ })
			if sleepCtx(ctx, fault.BackoffDelay(attempt-1, c.cfg.RetryBaseDelay, c.cfg.RetryMaxDelay, seed)) != nil {
				c.finishAborted(j)
				return
			}
		}
		cl := c.pick(order, attempt-1)
		if cl == nil {
			// Every backend in the routed order left the fleet since this
			// job was routed: re-route on the current ring.
			order = c.Ring().Route(j.key)
			cl = c.pick(order, attempt-1)
		}
		if cl == nil {
			c.finish(j, jobreg.StateFailed, nil, errors.New("cluster: no routable backend in the current fleet"))
			return
		}
		j.Update(func() { j.backend, j.backendJob, j.attempts = cl.b.Name, "", attempt })

		bid, err := cl.submit(ctx, j.body)
		if err != nil {
			if ctx.Err() != nil {
				c.finishAborted(j)
				return
			}
			if isNodeError(err) {
				lastErr = err
				continue
			}
			// Permanent rejection (a 400): no backend would accept it.
			c.finish(j, jobreg.StateFailed, nil, err)
			return
		}
		j.Update(func() { j.backendJob = bid })

		bj, err := c.pollUntilTerminal(j, cl, bid)
		switch {
		case err != nil && ctx.Err() != nil:
			// Cancelled (or aborted) mid-poll: pass the cancel on to the
			// backend so it stops computing a result nobody wants.
			c.cancelBackend(cl, bid)
			c.finishAborted(j)
			return
		case err != nil:
			lastErr = err
			continue
		default:
			c.finish(j, bj.State, bj, nil)
			return
		}
	}
	c.finish(j, jobreg.StateFailed, nil,
		fmt.Errorf("cluster: no backend completed the job after %d attempts: %w", budget, lastErr))
}

// pollUntilTerminal polls the backend until the job is terminal there.
// Any failed poll returns at once. A transport error or a 5xx already
// marked the node down, and a 404 (the backend lost the job), an
// unparseable body or an unexpected status does not heal by asking
// again, so the caller fails over.
func (c *Coordinator) pollUntilTerminal(j *Job, cl *client, bid string) (*backendJob, error) {
	ctx := j.Context()
	for {
		if err := sleepCtx(ctx, c.cfg.PollInterval); err != nil {
			return nil, err
		}
		bj, err := cl.poll(ctx, bid)
		if err != nil {
			return nil, err
		}
		if bj.State.Terminal() {
			return bj, nil
		}
	}
}

// pick chooses the backend for a given failover hop: ring order from
// the hop offset, preferring the first backend currently believed
// healthy, falling back to the first still-present choice when the
// whole fleet looks down (it may have recovered since the last
// probe). Backends that left the fleet since the order was computed
// are skipped; nil means none of the routed backends exist anymore
// and the caller must re-route.
func (c *Coordinator) pick(order []string, hop int) *client {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	n := len(order)
	var fallback *client
	for i := 0; i < n; i++ {
		cl := c.clients[order[(hop+i)%n]]
		if cl == nil {
			continue
		}
		if fallback == nil {
			fallback = cl
		}
		if cl.Healthy() {
			return cl
		}
	}
	return fallback
}

// cancelBackend best-effort cancels the backend's copy of a job; the
// job's own context is already dead, so use a short independent one.
func (c *Coordinator) cancelBackend(cl *client, bid string) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	cl.cancel(ctx, bid)
}

// outcomeCounters names the counter each terminal state increments.
var outcomeCounters = map[jobreg.State]string{
	jobreg.StateDone:      "cluster.jobs_completed",
	jobreg.StateFailed:    "cluster.jobs_failed",
	jobreg.StateCancelled: "cluster.jobs_cancelled",
}

// finish is the coordinator's one terminal transition. The first call
// wins: it records the outcome (bj, when the backend reported one; err
// overrides the backend's error), then journals the completion, counts
// it and lets the registry prune, all before Done closes.
func (c *Coordinator) finish(j *Job, state jobreg.State, bj *backendJob, err error) {
	if err == nil && bj != nil && bj.Error != "" {
		err = errors.New(bj.Error)
	}
	j.Finish(state, err, func() {
		if bj != nil {
			j.cached, j.result = bj.Cached, bj.Result
		}
	}, func() {
		if jerr := c.completeJournal(j, state); jerr != nil {
			// A completion that could not be journaled means the job will
			// be re-run on the next boot — wasteful (the backend cache
			// usually absorbs it) but never wrong.
			c.reg.Counter("cluster.journal.write_errors").Add(1)
		}
		c.reg.Counter(outcomeCounters[state]).Add(1)
		c.jobs.Finish(j.ID())
	})
}

// completeJournal writes the job's completion record; ephemeral jobs
// (deltas) were never accepted in the journal, so completing them
// would strand a done-without-accept record for nothing.
func (c *Coordinator) completeJournal(j *Job, state jobreg.State) error {
	if j.ephemeral {
		return nil
	}
	return c.journal.Complete(j.ID(), state)
}

// finishAborted resolves a job whose context died, by cause: a user
// Cancel becomes a journaled "cancelled"; a coordinator abort (crash
// simulation, drain deadline) leaves the job non-terminal and
// unjournaled so the next boot replays it.
func (c *Coordinator) finishAborted(j *Job) {
	cause := context.Cause(j.Context())
	if errors.Is(cause, errAborted) {
		return
	}
	c.finish(j, jobreg.StateCancelled, nil, cause)
}

// BackendStatus is one backend's aggregated health view.
type BackendStatus struct {
	Name    string          `json:"name"`
	URL     string          `json:"url"`
	Ready   bool            `json:"ready"`
	Healthy bool            `json:"healthy"`
	Detail  json.RawMessage `json:"detail,omitempty"`
}

// Backends returns the current fleet in configuration order.
func (c *Coordinator) Backends() []Backend {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	return append([]Backend(nil), c.backends...)
}

// Status live-probes every backend's /readyz and returns per-backend
// readiness in configuration order.
func (c *Coordinator) Status(ctx context.Context) []BackendStatus {
	c.topoMu.RLock()
	backends := append([]Backend(nil), c.backends...)
	clients := make([]*client, len(backends))
	for i, b := range backends {
		clients[i] = c.clients[b.Name]
	}
	c.topoMu.RUnlock()
	out := make([]BackendStatus, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		wg.Add(1)
		go func(i int, b Backend, cl *client) {
			defer wg.Done()
			ready, detail := cl.readyz(ctx)
			out[i] = BackendStatus{Name: b.Name, URL: b.URL, Ready: ready, Healthy: cl.Healthy(), Detail: detail}
		}(i, b, clients[i])
	}
	wg.Wait()
	return out
}

// GatherMetrics fetches every backend's /metrics concurrently; a dead
// backend maps to null so the aggregate never blocks on fleet health.
func (c *Coordinator) GatherMetrics(ctx context.Context) map[string]json.RawMessage {
	c.topoMu.RLock()
	clients := make(map[string]*client, len(c.clients))
	for name, cl := range c.clients {
		clients[name] = cl
	}
	c.topoMu.RUnlock()
	out := make(map[string]json.RawMessage, len(clients))
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for name, cl := range clients {
		wg.Add(1)
		go func(name string, cl *client) {
			defer wg.Done()
			m, err := cl.metrics(ctx)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				out[name] = nil
				return
			}
			out[name] = m
		}(name, cl)
	}
	wg.Wait()
	return out
}

// Shutdown stops intake and drains: in-flight jobs keep running to
// completion. If ctx fires first the remaining runners abort without
// journaling completions — exactly a crash from the journal's point of
// view, so the next boot replays them; the ctx error is returned.
// Under HA the leader lock is released (if still ours) so a standby
// can take over without waiting out the lease window.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.stopOnce.Do(func() {
		close(c.probeStop)
		close(c.leaseStop)
	})
	c.probeWG.Wait()
	c.leaseWG.Wait()

	drained := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		c.abort(errAborted)
		<-drained
		err = ctx.Err()
	}
	if jerr := c.journal.Close(); err == nil && jerr != nil {
		err = jerr
	}
	if ha := c.cfg.HA; ha != nil {
		releaseLock(ha.LockPath, ha.Lease.Owner)
	}
	return err
}

// sleepCtx sleeps for d or until ctx fires.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
