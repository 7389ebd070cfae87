package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"igpart"
	"igpart/internal/fault"
	"igpart/internal/service"
)

// serverConfig carries the HTTP-layer knobs (the engine has its own).
type serverConfig struct {
	// dataDir is the root for server-side netlist paths in submissions;
	// empty disables the "path" field entirely.
	dataDir string
	// maxBody bounds the request body size in bytes.
	maxBody int64
	// inj arms the transport-layer fault points (io.read-err in netlist
	// loading); nil disarms them.
	inj *fault.Injector
}

// newServer serves the single-node API over a service.Engine.
// Submission is non-blocking end to end: a full queue answers 429
// immediately (the engine's explicit-rejection backpressure), so the
// daemon never accumulates hidden in-flight work beyond its bounds.
func newServer(engine *service.Engine, cfg serverConfig) http.Handler {
	return newHandler(engineRole{engine, cfg}, cfg.maxBody)
}

// engineRole is the single-node role: jobs solve in-process.
type engineRole struct {
	engine *service.Engine
	cfg    serverConfig
}

var _ jobRole = engineRole{}

// submitRequest is the POST /v1/jobs payload. Exactly one netlist
// source must be set: an inline Bookshelf pair or a server-side path
// (relative to the daemon's -data directory).
type submitRequest struct {
	Path      string         `json:"path,omitempty"`
	Bookshelf *bookshelfPair `json:"bookshelf,omitempty"`

	Algo            string  `json:"algo,omitempty"`
	Scheme          string  `json:"scheme,omitempty"`
	Threshold       int     `json:"threshold,omitempty"`
	Seed            int64   `json:"seed,omitempty"`
	BlockSize       int     `json:"block_size,omitempty"`
	Parallelism     int     `json:"parallelism,omitempty"`
	Levels          int     `json:"levels,omitempty"`
	CoarseningRatio float64 `json:"coarsening_ratio,omitempty"`
	TimeoutMS       int64   `json:"timeout_ms,omitempty"`

	// Balanced k-way options (algo "kway" / "kway-spectral"): part count,
	// imbalance budget, and named fixed-module pins.
	K   int             `json:"k,omitempty"`
	Eps float64         `json:"eps,omitempty"`
	Fix []igpart.FixPin `json:"fix,omitempty"`

	// Portfolio options (algo "portfolio"): race budget and acceptance
	// ratio-cut bound.
	BudgetMS int64   `json:"budget_ms,omitempty"`
	Accept   float64 `json:"accept,omitempty"`
}

// deltaRequest is the PATCH /v1/jobs/{id} payload: an ECO delta to
// apply against the identified finished job.
type deltaRequest struct {
	Delta     *igpart.NetlistDelta `json:"delta"`
	TimeoutMS int64                `json:"timeout_ms,omitempty"`
}

// bookshelfPair is an inline UCLA Bookshelf netlist.
type bookshelfPair struct {
	Nodes string `json:"nodes"`
	Nets  string `json:"nets"`
}

// jobJSON is the wire form of a job snapshot.
type jobJSON struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	// Stack carries the recovered panic stack when the job failed
	// because a solve panicked; empty otherwise.
	Stack     string      `json:"stack,omitempty"`
	Submitted time.Time   `json:"submitted"`
	Started   *time.Time  `json:"started,omitempty"`
	Finished  *time.Time  `json:"finished,omitempty"`
	Result    *resultJSON `json:"result,omitempty"`
}

type resultJSON struct {
	Algo         string  `json:"algo"`
	CutNets      int     `json:"cut_nets"`
	SizeU        int     `json:"size_u"`
	SizeW        int     `json:"size_w"`
	RatioCut     float64 `json:"ratio_cut"`
	Lambda2      float64 `json:"lambda2,omitempty"`
	BestRank     int     `json:"best_rank,omitempty"`
	Levels       int     `json:"levels,omitempty"`
	CoarsestNets int     `json:"coarsest_nets,omitempty"`
	// Winner names the portfolio race's winning engine (algo
	// "portfolio"); Warm and TouchedNets describe an ECO delta job's
	// warm start.
	Winner      string `json:"winner,omitempty"`
	Warm        bool   `json:"warm,omitempty"`
	TouchedNets int    `json:"touched_nets,omitempty"`
	// Sides is per-module 0/1; an explicit int array rather than
	// []igpart.Side, which (being a byte slice) would marshal as base64.
	Sides []int `json:"sides,omitempty"`
	// Balanced k-way results carry the per-module part assignment and the
	// multiway metrics instead of Sides and the bipartition metrics.
	K            int           `json:"k,omitempty"`
	Cap          int           `json:"cap,omitempty"`
	Parts        []int         `json:"parts,omitempty"`
	PartSizes    []int         `json:"part_sizes,omitempty"`
	SpanningNets int           `json:"spanning_nets,omitempty"`
	Connectivity int           `json:"connectivity,omitempty"`
	RatioValue   float64       `json:"ratio_value,omitempty"`
	Stages       *igpart.Stage `json:"stages,omitempty"`
}

func snapshotJSON(snap service.Snapshot) jobJSON {
	j := jobJSON{
		ID:        snap.ID,
		State:     string(snap.State),
		Cached:    snap.Cached,
		Submitted: snap.Submitted,
	}
	if snap.Err != nil {
		j.Error = snap.Err.Error()
		if pe, ok := fault.AsPanic(snap.Err); ok {
			j.Stack = string(pe.Stack)
		}
	}
	if !snap.Started.IsZero() {
		t := snap.Started
		j.Started = &t
	}
	if !snap.Finished.IsZero() {
		t := snap.Finished
		j.Finished = &t
	}
	if res := snap.Result; res != nil {
		stages := res.Stages
		sides := make([]int, len(res.Sides))
		for i, s := range res.Sides {
			sides[i] = int(s)
		}
		j.Result = &resultJSON{
			Algo:         res.Algo,
			CutNets:      res.Metrics.CutNets,
			SizeU:        res.Metrics.SizeU,
			SizeW:        res.Metrics.SizeW,
			RatioCut:     res.Metrics.RatioCut,
			Lambda2:      res.Lambda2,
			BestRank:     res.BestRank,
			Levels:       res.Levels,
			CoarsestNets: res.CoarsestNets,
			Winner:       res.Winner,
			Warm:         res.Warm,
			TouchedNets:  res.TouchedNets,
			Sides:        sides,
			K:            res.K,
			Cap:          res.Cap,
			Parts:        res.Parts,
			PartSizes:    res.PartSizes,
			SpanningNets: res.SpanningNets,
			Connectivity: res.Connectivity,
			RatioValue:   res.RatioValue,
			Stages:       &stages,
		}
	}
	return j
}

// loadNetlist resolves a submission's netlist source, for the engine
// and for the coordinator (which inlines the netlist before forwarding,
// so the backends need no shared filesystem).
func loadNetlist(req *submitRequest, dataDir string, inj *fault.Injector) (*igpart.Netlist, error) {
	if inj.Active(fault.IOReadErr) {
		return nil, errTransientIO
	}
	switch {
	case req.Path != "" && req.Bookshelf != nil:
		return nil, errors.New("set exactly one of \"path\" and \"bookshelf\"")
	case req.Bookshelf != nil:
		return igpart.ReadBookshelf(
			strings.NewReader(req.Bookshelf.Nodes),
			strings.NewReader(req.Bookshelf.Nets))
	case req.Path != "":
		if dataDir == "" {
			return nil, errors.New("server-side paths are disabled (daemon started without -data)")
		}
		// filepath.IsLocal rejects absolute paths and any ".." escape, so
		// a request cannot read outside the data directory.
		if !filepath.IsLocal(req.Path) {
			return nil, fmt.Errorf("path %q is not local to the data directory", req.Path)
		}
		return igpart.Load(filepath.Join(dataDir, req.Path))
	default:
		return nil, errors.New("request carries no netlist: set \"path\" or \"bookshelf\"")
	}
}

func (e engineRole) submit(body decoder) (string, any, error) {
	var req submitRequest
	if err := body(&req); err != nil {
		return "", nil, err
	}
	h, err := loadNetlist(&req, e.cfg.dataDir, e.cfg.inj)
	if err != nil {
		return "", nil, err
	}
	return accepted(e.engine.Submit(service.Request{
		Netlist: h,
		Options: service.Options{
			Algo:            req.Algo,
			Scheme:          req.Scheme,
			Threshold:       req.Threshold,
			Seed:            req.Seed,
			BlockSize:       req.BlockSize,
			Parallelism:     req.Parallelism,
			Levels:          req.Levels,
			CoarseningRatio: req.CoarseningRatio,
			K:               req.K,
			Eps:             req.Eps,
			Fix:             req.Fix,
			Budget:          time.Duration(req.BudgetMS) * time.Millisecond,
			Accept:          req.Accept,
			Timeout:         time.Duration(req.TimeoutMS) * time.Millisecond,
		},
	}))
}

// submitDelta submits an ECO delta against a finished job. The engine
// warm-starts from the base result's cached net ordering; the answer is
// a brand-new job, polled like any other.
func (e engineRole) submitDelta(_ context.Context, base string, body decoder) (string, any, error) {
	var req deltaRequest
	if err := body(&req); err != nil {
		return "", nil, err
	}
	if req.Delta == nil {
		return "", nil, errors.New("request carries no delta")
	}
	return accepted(e.engine.SubmitDelta(base, *req.Delta, time.Duration(req.TimeoutMS)*time.Millisecond))
}

// accepted is a submission's answer: the new job's ID and wire form.
func accepted(job *service.Job, err error) (string, any, error) {
	if err != nil {
		return "", nil, err
	}
	return job.ID(), snapshotJSON(job.Snapshot()), nil
}

func (e engineRole) get(id string) (jobView, error) {
	job, ok := e.engine.Get(id)
	if !ok {
		return jobView{}, errUnknownJob
	}
	return jobView{job.Done(), func() any { return snapshotJSON(job.Snapshot()) }}, nil
}

func (e engineRole) cancel(id string) (any, error) {
	job, ok := e.engine.Cancel(id)
	if !ok {
		return nil, errUnknownJob
	}
	return snapshotJSON(job.Snapshot()), nil
}

// live is the liveness probe: the process is up and serving, say 200 —
// even when degraded, because restarting a degraded daemon loses its
// queue for no gain.
func (engineRole) live() any { return map[string]string{"status": "ok"} }

// ready is the readiness probe: 503 tells the load balancer to route
// new work elsewhere while the engine is backlogged, repeatedly
// panicking, or draining — conditions that self-heal without a restart.
func (e engineRole) ready(context.Context) (int, any) {
	hl := e.engine.Health()
	if !hl.Ready {
		return http.StatusServiceUnavailable, hl
	}
	return http.StatusOK, hl
}

func (e engineRole) metrics(context.Context) any { return e.engine.Metrics().Snapshot() }
