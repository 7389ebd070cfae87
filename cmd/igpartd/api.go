package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"igpart/internal/cluster"
	"igpart/internal/jobreg"
	"igpart/internal/obs"
	"igpart/internal/service"
)

// role is one igpartd mode behind the route table: the single-node
// engine (engineRole), the cluster coordinator (coordRole) or a warm
// standby (standbyRole). Every role answers the probes; what else it
// serves is what else it implements.
type role interface {
	live() any
	ready(ctx context.Context) (status int, body any)
}

// jobRole is a role that takes work: the engine and the coordinator.
// Methods that take a request body read it through the decoder, into
// the type the role needs (the coordinator relays PATCH bodies raw).
// Errors map onto statuses in writeError.
type jobRole interface {
	role
	submit(body decoder) (id string, job any, err error)
	submitDelta(ctx context.Context, base string, body decoder) (id string, job any, err error)
	get(id string) (jobView, error)
	cancel(id string) (any, error)
	metrics(ctx context.Context) any
}

// jobView is a job as the GET route sees it: done closes when the job
// is terminal, and wire renders its current wire form. Both come from
// the one lookup, so a GET that waits answers for the job it found even
// if the registry has forgotten the ID since.
type jobView struct {
	done <-chan struct{}
	wire func() any
}

// batchRole is a jobRole that also takes batches: the coordinator.
type batchRole interface {
	jobRole
	batch(body decoder) (*cluster.Batch, error)
}

// decoder reads the request body into v.
type decoder func(v any) error

// Errors of the HTTP layer itself; the roles return the engine's and
// the coordinator's sentinels as they are.
var (
	errUnknownJob = errors.New("unknown job")
	errNotLeader  = errors.New("standby coordinator: not the leader yet; retry after takeover")
	// errTransientIO marks a netlist read that failed for reasons the
	// caller can retry, as opposed to a malformed request.
	errTransientIO = errors.New("transient read error loading netlist")
)

// newHandler is the route table every role is served from:
//
//	POST   /v1/jobs      submit a partitioning job (202 + job id); a
//	                     coordinator routes it to a backend by consistent
//	                     hashing on the netlist's content address
//	GET    /v1/jobs/{id} poll status; terminal jobs carry the result (a
//	                     coordinator relays the backend's verbatim). With
//	                     ?wait=<duration> (e.g. 5s) the answer waits until
//	                     the job is terminal, the wait (capped at maxWait)
//	                     runs out or the server begins shutting down
//	PATCH  /v1/jobs/{id} submit an ECO delta against a finished job (202 +
//	                     new job id, warm-started from the cache; a
//	                     coordinator pins it to the backend that solved
//	                     the base)
//	DELETE /v1/jobs/{id} request cooperative cancellation
//	POST   /v1/batches   coordinator only: submit many jobs at once; the
//	                     chunked NDJSON response streams one event per
//	                     job completion (with its obs span)
//	GET    /healthz      liveness probe (alias of /livez)
//	GET    /livez        liveness probe: 200 while the process serves
//	GET    /readyz       readiness probe: 503 while the engine is
//	                     degraded or draining, no backend is ready, or the
//	                     process is a standby
//	GET    /metrics      JSON dump of the obs registry (a coordinator adds
//	                     every backend's /metrics)
func newHandler(rl role, maxBody int64) http.Handler {
	mux := http.NewServeMux()
	live := func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, http.StatusOK, rl.live()) }
	mux.HandleFunc("GET /healthz", live)
	mux.HandleFunc("GET /livez", live)
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		status, health := rl.ready(r.Context())
		writeJSON(w, status, health)
	})
	jobs, ok := rl.(jobRole)
	if !ok {
		// A standby takes no work: everything else, routed or not, waits
		// out the takeover.
		mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) { writeError(w, errNotLeader) })
		return mux
	}

	if maxBody <= 0 {
		maxBody = 32 << 20
	}
	// body is the one place a request body is read: JSON is decoded
	// strictly (unknown fields are an error) under the size cap, and a
	// *[]byte receives the raw bytes for relaying verbatim.
	body := func(w http.ResponseWriter, r *http.Request) decoder {
		return func(v any) error {
			r.Body = http.MaxBytesReader(w, r.Body, maxBody)
			if raw, ok := v.(*[]byte); ok {
				var err error
				*raw, err = io.ReadAll(r.Body)
				return err
			}
			dec := json.NewDecoder(r.Body)
			dec.DisallowUnknownFields()
			if err := dec.Decode(v); err != nil {
				return fmt.Errorf("bad JSON: %w", err)
			}
			return nil
		}
	}
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		id, job, err := jobs.submit(body(w, r))
		writeAccepted(w, id, job, err)
	})
	mux.HandleFunc("PATCH /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, job, err := jobs.submitDelta(r.Context(), r.PathValue("id"), body(w, r))
		writeAccepted(w, id, job, err)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		wait, err := parseWait(r.URL.Query().Get("wait"))
		if err != nil {
			writeError(w, err)
			return
		}
		job, err := jobs.get(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		if wait > 0 && !awaitJob(w, r, job.done, wait) {
			return // the client went away
		}
		writeJSON(w, http.StatusOK, job.wire())
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, err := jobs.cancel(r.PathValue("id"))
		writeOK(w, job, err)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, jobs.metrics(r.Context()))
	})
	if batches, ok := rl.(batchRole); ok {
		mux.HandleFunc("POST /v1/batches", func(w http.ResponseWriter, r *http.Request) {
			batch, err := batches.batch(body(w, r))
			if err != nil {
				writeError(w, err)
				return
			}
			writeBatch(w, r, batch)
		})
	}
	return mux
}

// maxWait caps a job GET's ?wait=; a longer wait is cut to it.
const maxWait = 30 * time.Second

// writeGrace is how long a long-lived answer may take to write once it
// has something to say. http.Server's WriteTimeout counts from the
// request's arrival, so a batch stream pushes its write deadline this
// far ahead at every event and a job GET pushes it this far past its
// wait.
const writeGrace = time.Minute

// parseWait reads a job GET's ?wait=, a Go duration such as 5s or
// 250ms; an absent wait is 0, which answers at once.
func parseWait(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad wait %q: want a non-negative duration such as 5s", s)
	}
	return d, nil
}

// awaitJob holds a job GET until done closes, the capped wait runs out
// or the server begins shutting down, and reports whether to answer:
// false when the client went away first. The write deadline moves past
// the wait, so a server WriteTimeout shorter than the wait cannot cut
// the answer off and make the node look dead to a coordinator.
func awaitJob(w http.ResponseWriter, r *http.Request, done <-chan struct{}, wait time.Duration) bool {
	wait = min(wait, maxWait)
	// Best-effort: not every ResponseWriter supports it.
	http.NewResponseController(w).SetWriteDeadline(time.Now().Add(wait + writeGrace))
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
	case <-shuttingDown(r.Context()):
	case <-r.Context().Done():
		return false
	}
	return true
}

// shutdownKey is the request-context key of the channel that closes
// when the serving http.Server begins Shutdown (see newHTTPServer).
type shutdownKey struct{}

// shuttingDown returns the channel that closes when the server serving
// ctx's request begins Shutdown, or nil (never ready) under a server
// that newHTTPServer did not build.
func shuttingDown(ctx context.Context) <-chan struct{} {
	ch, _ := ctx.Value(shutdownKey{}).(<-chan struct{})
	return ch
}

// writeError is the one error→status mapping of every role.
func writeError(w http.ResponseWriter, err error) {
	status, msg := http.StatusBadRequest, err.Error()
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		status, msg = http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)
	case errors.Is(err, service.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
	case errors.Is(err, errTransientIO), errors.Is(err, errNotLeader):
		w.Header().Set("Retry-After", "1")
		status = http.StatusServiceUnavailable
	case errors.Is(err, service.ErrShutdown), errors.Is(err, cluster.ErrShutdown):
		status = http.StatusServiceUnavailable
	case errors.Is(err, errUnknownJob), errors.Is(err, service.ErrUnknownBase), errors.Is(err, cluster.ErrUnknownBase):
		status = http.StatusNotFound
	case errors.Is(err, service.ErrNotWarmStartable), errors.Is(err, cluster.ErrNotWarmStartable):
		status = http.StatusConflict
	case errors.Is(err, cluster.ErrJournal):
		status = http.StatusInternalServerError
	case cluster.IsNodeError(err):
		status = http.StatusBadGateway
	}
	// Anything else — service.ErrBadRequest, a malformed body, a netlist
	// that does not parse, a backend's own 400 — is the client's: 400.
	writeJSON(w, status, map[string]string{"error": msg})
}

// errText is a job error's wire form: its message, or "" for none.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// writeAccepted answers a submission: 202 with the new job, or the
// error's status.
func writeAccepted(w http.ResponseWriter, id string, job any, err error) {
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+id)
	writeJSON(w, http.StatusAccepted, job)
}

// writeOK answers a cancel: 200 with v, or the error's status.
func writeOK(w http.ResponseWriter, v any, err error) {
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("igpartd: encode response: %v", err)
	}
}

// batchEvent is one NDJSON line of the streamed batch response. The
// first line is event "accepted" (job IDs in submission order); then
// one "job" event per completion as it happens, carrying the job's obs
// span (wall time from acceptance to completion, attempt/resubmit
// counters); finally one "batch" summary event.
type batchEvent struct {
	Event string `json:"event"`
	Batch string `json:"batch,omitempty"`
	// Accepted event: the job IDs.
	Jobs []string `json:"jobs,omitempty"`
	// Job event: the completed job's snapshot fields.
	ID        string          `json:"id,omitempty"`
	State     string          `json:"state,omitempty"`
	Backend   string          `json:"backend,omitempty"`
	Attempts  int             `json:"attempts,omitempty"`
	Resubmits int             `json:"resubmits,omitempty"`
	Cached    bool            `json:"cached,omitempty"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	// Span is the obs stage for this job (or, on the summary event, the
	// whole batch): name, wall time, counters.
	Span *obs.Stage `json:"span,omitempty"`
	// Batch summary event tallies.
	Done   int `json:"done,omitempty"`
	Failed int `json:"failed,omitempty"`
}

// writeBatch answers an accepted batch as a chunked NDJSON stream of
// batchEvents; from the first byte on, errors can only be conveyed
// in-band.
func writeBatch(w http.ResponseWriter, r *http.Request, batch *cluster.Batch) {
	tr := obs.NewTrace("batch:" + batch.ID)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusAccepted)
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	emit := func(ev batchEvent) bool {
		// Push the deadline out at every event, so a long batch is
		// bounded by inactivity, not total stream lifetime. Best-effort:
		// not every ResponseWriter supports it.
		rc.SetWriteDeadline(time.Now().Add(writeGrace))
		if err := json.NewEncoder(w).Encode(ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	ids := make([]string, len(batch.Jobs))
	spans := make([]obs.Recorder, len(batch.Jobs))
	for i, j := range batch.Jobs {
		ids[i] = j.ID()
		spans[i] = tr.StartSpan("job:" + j.ID())
	}
	if !emit(batchEvent{Event: "accepted", Batch: batch.ID, Jobs: ids}) {
		return
	}

	// Fan the per-job completions into one stream, in completion order.
	type doneMsg struct {
		idx  int
		snap cluster.Snapshot
	}
	completions := make(chan doneMsg)
	for i, j := range batch.Jobs {
		go func(i int, j *cluster.Job) {
			select {
			case <-j.Done():
			case <-r.Context().Done():
				return
			}
			select {
			case completions <- doneMsg{i, j.Snapshot()}:
			case <-r.Context().Done():
			}
		}(i, j)
	}
	done, failed := 0, 0
	for n := 0; n < len(batch.Jobs); n++ {
		var msg doneMsg
		select {
		case msg = <-completions:
		case <-r.Context().Done():
			return // client went away; the jobs keep running
		}
		sp := spans[msg.idx]
		sp.Count("attempts", int64(msg.snap.Attempts))
		sp.Count("resubmits", int64(msg.snap.Resubmits))
		sp.End()
		stage := tr.Report().Children[msg.idx]
		if msg.snap.State == jobreg.StateDone {
			done++
		} else {
			failed++
		}
		if !emit(batchEvent{
			Event:     "job",
			ID:        msg.snap.ID,
			State:     string(msg.snap.State),
			Backend:   msg.snap.Backend,
			Attempts:  msg.snap.Attempts,
			Resubmits: msg.snap.Resubmits,
			Cached:    msg.snap.Cached,
			Error:     errText(msg.snap.Err),
			Result:    msg.snap.Result,
			Span:      &stage,
		}) {
			return
		}
	}
	root := tr.Finish()
	emit(batchEvent{Event: "batch", Batch: batch.ID, Done: done, Failed: failed, Span: &root})
}
