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
	get(id string) (any, error)
	cancel(id string) (any, error)
	metrics(ctx context.Context) any
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
//	                     coordinator relays the backend's verbatim)
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
		job, err := jobs.get(r.PathValue("id"))
		writeOK(w, job, err)
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

// writeOK answers a lookup: 200 with v, or the error's status.
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
		// The server's WriteTimeout (when set) is absolute from request
		// start; push the deadline out at every event so a long batch is
		// bounded by inactivity, not total stream lifetime. Best-effort:
		// not every ResponseWriter supports it.
		rc.SetWriteDeadline(time.Now().Add(time.Minute))
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
