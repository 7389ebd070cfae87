package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"igpart"
	"igpart/internal/cluster"
	"igpart/internal/obs"
)

// maxBatchJobs bounds one /v1/batches request; beyond this the client
// should split the batch (the limit exists to bound journal write
// bursts and the streamed response's lifetime, not memory).
const maxBatchJobs = 256

// newCoordServer serves the cluster API over a cluster.Coordinator: the
// single-node job routes plus batch intake. Submissions are
// re-serialized with the netlist inlined before forwarding, so backends
// need no shared filesystem; dataDir only governs what the coordinator
// itself may read.
func newCoordServer(coord *cluster.Coordinator, dataDir string, maxBody int64) http.Handler {
	return newHandler(coordRole{coord, dataDir}, maxBody)
}

// coordRole is the coordinator role: jobs are routed to backends.
type coordRole struct {
	coord   *cluster.Coordinator
	dataDir string
}

var _ batchRole = coordRole{}

// prepare resolves one submission into its routing key and the
// backend-ready forward body: the netlist is loaded here (inline or
// via the coordinator's -data directory), its content address becomes
// the ring key — the very key the backends' result caches use, so the
// cache shards across the fleet with zero invalidation protocol — and
// the request is re-marshalled with the netlist inlined.
func (c coordRole) prepare(req *submitRequest) (key string, body []byte, err error) {
	h, err := loadNetlist(req, c.dataDir, nil)
	if err != nil {
		return "", nil, err
	}
	var nodes, nets bytes.Buffer
	if err := igpart.WriteBookshelf(&nodes, &nets, h); err != nil {
		return "", nil, fmt.Errorf("serialize netlist: %v", err)
	}
	fwd := *req
	fwd.Path = ""
	fwd.Bookshelf = &bookshelfPair{Nodes: nodes.String(), Nets: nets.String()}
	body, err = json.Marshal(&fwd)
	if err != nil {
		return "", nil, err
	}
	return fmt.Sprintf("%x", sha256.Sum256(h.CanonicalBytes())), body, nil
}

// coordJobJSON is the wire form of a cluster job snapshot. The result
// field relays the backend's result object verbatim, so cluster-mode
// clients parse the same shape as single-node ones.
type coordJobJSON struct {
	ID         string          `json:"id"`
	Batch      string          `json:"batch,omitempty"`
	State      string          `json:"state"`
	Backend    string          `json:"backend,omitempty"`
	BackendJob string          `json:"backend_job,omitempty"`
	Attempts   int             `json:"attempts"`
	Resubmits  int             `json:"resubmits"`
	Cached     bool            `json:"cached,omitempty"`
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
	Submitted  time.Time       `json:"submitted"`
	Finished   *time.Time      `json:"finished,omitempty"`
}

func coordSnapshotJSON(snap cluster.Snapshot) coordJobJSON {
	j := coordJobJSON{
		ID:         snap.ID,
		Batch:      snap.Batch,
		State:      string(snap.State),
		Backend:    snap.Backend,
		BackendJob: snap.BackendJob,
		Attempts:   snap.Attempts,
		Resubmits:  snap.Resubmits,
		Cached:     snap.Cached,
		Error:      errText(snap.Err),
		Result:     snap.Result,
		Submitted:  snap.Submitted,
	}
	if !snap.Finished.IsZero() {
		t := snap.Finished
		j.Finished = &t
	}
	return j
}

// coordAccepted is a submission's answer: the new job's ID and wire
// form.
func coordAccepted(job *cluster.Job, err error) (string, any, error) {
	if err != nil {
		return "", nil, err
	}
	return job.ID(), coordSnapshotJSON(job.Snapshot()), nil
}

func (c coordRole) submit(body decoder) (string, any, error) {
	var req submitRequest
	if err := body(&req); err != nil {
		return "", nil, err
	}
	key, fwd, err := c.prepare(&req)
	if err != nil {
		return "", nil, err
	}
	return coordAccepted(c.coord.Submit(key, fwd))
}

// submitDelta forwards an ECO delta to the backend that solved the
// base cluster job. The body is relayed verbatim — the backend's
// SubmitDelta does the delta validation, and its verdict maps back
// onto the same status codes single-node clients see.
func (c coordRole) submitDelta(ctx context.Context, base string, body decoder) (string, any, error) {
	var raw []byte
	if err := body(&raw); err != nil {
		return "", nil, err
	}
	return coordAccepted(c.coord.SubmitDelta(ctx, base, raw))
}

func (c coordRole) get(id string) (jobView, error) {
	job, ok := c.coord.Get(id)
	if !ok {
		return jobView{}, errUnknownJob
	}
	return jobView{job.Done(), func() any { return coordSnapshotJSON(job.Snapshot()) }}, nil
}

func (c coordRole) cancel(id string) (any, error) {
	job, ok := c.coord.Cancel(id)
	if !ok {
		return nil, errUnknownJob
	}
	return coordSnapshotJSON(job.Snapshot()), nil
}

// batchRequest is the POST /v1/batches payload.
type batchRequest struct {
	Jobs []submitRequest `json:"jobs"`
}

func (c coordRole) batch(body decoder) (*cluster.Batch, error) {
	var req batchRequest
	if err := body(&req); err != nil {
		return nil, err
	}
	if len(req.Jobs) == 0 {
		return nil, errors.New("batch carries no jobs")
	}
	if len(req.Jobs) > maxBatchJobs {
		return nil, fmt.Errorf("batch of %d jobs exceeds the %d-job limit", len(req.Jobs), maxBatchJobs)
	}
	// Resolve every netlist before accepting anything: a batch is
	// all-or-nothing at intake, so a typo in job 17 cannot strand 16
	// journaled jobs the client thinks were rejected.
	keys := make([]string, len(req.Jobs))
	bodies := make([]json.RawMessage, len(req.Jobs))
	for i := range req.Jobs {
		key, fwd, err := c.prepare(&req.Jobs[i])
		if err != nil {
			return nil, fmt.Errorf("job %d: %v", i, err)
		}
		keys[i], bodies[i] = key, fwd
	}
	return c.coord.SubmitBatch(keys, bodies)
}

func (coordRole) live() any { return map[string]string{"status": "ok", "mode": "coordinator"} }

// clusterHealthJSON is the coordinator's /readyz payload: per-backend
// readiness plus the rollup. The coordinator is ready while at least
// one backend can take work — a degraded fleet routes around its dead
// nodes, which is the whole point of the tier.
type clusterHealthJSON struct {
	Status   string                  `json:"status"`
	Ready    int                     `json:"ready"`
	Total    int                     `json:"total"`
	Backends []cluster.BackendStatus `json:"backends"`
}

func (c coordRole) ready(ctx context.Context) (int, any) {
	statuses := c.coord.Status(ctx)
	ready := 0
	for _, st := range statuses {
		if st.Ready {
			ready++
		}
	}
	h := clusterHealthJSON{Ready: ready, Total: len(statuses), Backends: statuses}
	code := http.StatusOK
	switch {
	case ready == len(statuses):
		h.Status = "ok"
	case ready > 0:
		h.Status = "degraded"
	default:
		h.Status = "down"
		code = http.StatusServiceUnavailable
	}
	return code, h
}

// clusterMetricsJSON aggregates the fleet's metrics: the coordinator's
// own registry (routing, failover, journal counters) plus each
// backend's /metrics document verbatim (null for unreachable nodes).
type clusterMetricsJSON struct {
	Coordinator obs.MetricsSnapshot        `json:"coordinator"`
	Backends    map[string]json.RawMessage `json:"backends"`
}

func (c coordRole) metrics(ctx context.Context) any {
	return clusterMetricsJSON{
		Coordinator: c.coord.Metrics().Snapshot(),
		Backends:    c.coord.GatherMetrics(ctx),
	}
}

// newStandbyServer serves a warm standby: the liveness probes answer
// truthfully (alive, role standby), readiness is an honest 503 saying
// how warm the standby is, and everything else is 503 + Retry-After so
// clients and load balancers wait out the takeover or go find the
// leader.
func newStandbyServer(stb *cluster.Standby) http.Handler {
	return newHandler(standbyRole{stb}, 0)
}

// standbyRole is the warm-standby role: it serves the probes only.
type standbyRole struct{ stb *cluster.Standby }

func (standbyRole) live() any {
	return map[string]string{"status": "ok", "mode": "coordinator", "role": "standby"}
}

// standbyHealthJSON is the standby's /readyz payload: not ready (a
// standby takes no work), but transparent about how warm it is and
// whose lease it is watching.
type standbyHealthJSON struct {
	Status       string    `json:"status"`
	Role         string    `json:"role"`
	LeaseTerm    int64     `json:"lease_term,omitempty"`
	LeaseOwner   string    `json:"lease_owner,omitempty"`
	LeaseExpires time.Time `json:"lease_expires,omitempty"`
	WarmRecords  int       `json:"warm_records"`
	Unfinished   int       `json:"unfinished"`
}

func (s standbyRole) ready(context.Context) (int, any) {
	st := s.stb.Status()
	h := standbyHealthJSON{Status: "standby", Role: "standby", WarmRecords: st.Records, Unfinished: st.Unfinished}
	if st.HasLease {
		h.LeaseTerm = st.Lease.Term
		h.LeaseOwner = st.Lease.Owner
		h.LeaseExpires = st.Lease.Deadline
	}
	return http.StatusServiceUnavailable, h
}

// coordOptions gathers everything runCoordinator needs, leader or
// standby.
type coordOptions struct {
	addr    string
	dataDir string
	maxBody int64
	grace   time.Duration
	readTO  time.Duration
	writeTO time.Duration

	cfg            cluster.Config
	journalPath    string
	standby        bool
	leaseTTL       time.Duration
	backendsFile   string
	membershipPoll time.Duration
	inj            *igpart.FaultInjector
}

// switchHandler atomically swaps the daemon's handler when a standby
// wins leadership mid-serve: requests before the swap see the standby
// façade, requests after see the full coordinator API.
type switchHandler struct {
	h atomic.Value // http.Handler
}

func (s *switchHandler) Set(h http.Handler) { s.h.Store(&h) }

func (s *switchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load().(*http.Handler)).ServeHTTP(w, r)
}

// runCoordinator boots cluster mode. A leader takes the journal's
// leadership lease, builds the fleet (static -backends or the
// watchable -backends-file), replays unfinished work, and serves the
// coordinator API; a standby serves the 503 façade while tailing the
// journal, then flips to leader in place when the lease lapses. On
// SIGTERM both drain (grace-bounded; jobs the drain abandons are
// replayed by the next boot), and a leader releases its lock early so
// a standby need not wait out the lease window.
func runCoordinator(o coordOptions) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	owner := cluster.LeaseOwnerID()
	sw := &switchHandler{}
	var active atomic.Pointer[cluster.Coordinator]

	// SIGHUP forces a membership reload. Armed in every coordinator
	// mode so a standby that takes over inherits the behavior.
	force := make(chan struct{}, 1)
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				select {
				case force <- struct{}{}:
				default:
				}
			}
		}
	}()

	startLeader := func(j *cluster.Journal, replay []cluster.Record, lease *cluster.Lease) error {
		cfg := o.cfg
		cfg.Journal = j
		if o.backendsFile != "" {
			fleet, err := cluster.ParseBackendsFile(o.backendsFile)
			if err != nil {
				return err
			}
			cfg.Backends = fleet
		}
		if lease != nil {
			cfg.HA = &cluster.HAConfig{Lease: *lease, TTL: o.leaseTTL, LockPath: cluster.LockPath(o.journalPath)}
		}
		coord, err := cluster.New(cfg)
		if err != nil {
			return err
		}
		if n := coord.Recover(replay); n > 0 {
			log.Printf("igpartd: journal replay resubmitted %d unfinished job(s)", n)
		}
		if o.backendsFile != "" {
			go coord.WatchBackendsFile(ctx, o.backendsFile, o.membershipPoll, force, log.Printf)
		}
		names := make([]string, len(cfg.Backends))
		for i, b := range cfg.Backends {
			names[i] = b.Name + "=" + b.URL
		}
		log.Printf("igpartd: coordinator over %d backend(s): %v", len(names), names)
		if lease != nil {
			log.Printf("igpartd: leadership held (term %d, owner %s)", lease.Term, lease.Owner)
		}
		active.Store(coord)
		sw.Set(newCoordServer(coord, o.dataDir, o.maxBody))
		return nil
	}

	if o.standby {
		stb := cluster.NewStandby(cluster.StandbyConfig{
			Path:    o.journalPath,
			Owner:   owner,
			TTL:     o.leaseTTL,
			Metrics: o.cfg.Metrics,
		})
		sw.Set(newStandbyServer(stb))
		log.Printf("igpartd: standby tailing %s (owner %s)", o.journalPath, owner)
		go func() {
			j, replay, lease, err := stb.Run(ctx)
			if err != nil {
				if ctx.Err() == nil {
					log.Printf("igpartd: standby: %v", err)
				}
				return
			}
			j.SetFault(o.inj)
			log.Printf("igpartd: standby takeover: lease term %d (owner %s)", lease.Term, lease.Owner)
			if err := startLeader(j, replay, &lease); err != nil {
				// Keep serving the 503 façade; the operator sees why.
				log.Printf("igpartd: standby takeover failed: %v", err)
			}
		}()
	} else {
		var (
			j      *cluster.Journal
			replay []cluster.Record
			lease  *cluster.Lease
		)
		if o.journalPath != "" {
			jj, recs, l, err := cluster.TakeLeadership(o.journalPath, owner, o.leaseTTL)
			if err != nil {
				return err
			}
			jj.SetFault(o.inj)
			j, replay, lease = jj, recs, &l
		}
		if err := startLeader(j, replay, lease); err != nil {
			return err
		}
	}

	drain := func(dctx context.Context) error {
		cancel() // stop the standby tail and the membership watcher
		if c := active.Load(); c != nil {
			return c.Shutdown(dctx)
		}
		return nil
	}
	return serveHTTP(o.addr, o.readTO, o.writeTO, sw, drain, o.grace)
}
