package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"igpart/internal/jobreg"
)

// Backend names one igpartd node: Name is the ring identity (stable
// across URL changes), URL its HTTP base, e.g. http://10.0.0.7:8080.
type Backend struct {
	Name string
	URL  string
}

// ErrDuplicateBackend rejects a backend list in which two entries
// share a ring name. Letting the last one win would silently
// double-count the name's virtual nodes and hide half the fleet.
var ErrDuplicateBackend = errors.New("cluster: duplicate backend name")

// ParseBackends parses the -backends flag: a comma-separated list of
// URLs, each optionally prefixed "name=". Unnamed backends are called
// b0, b1, … in flag order — positional names are fine for a static
// fleet, but naming them explicitly keeps the ring stable when the
// list is reordered. Duplicate names (explicit, or an explicit name
// colliding with a positional one) are rejected with
// ErrDuplicateBackend.
func ParseBackends(spec string) ([]Backend, error) {
	var out []Backend
	seen := make(map[string]bool)
	for i, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		b := Backend{Name: fmt.Sprintf("b%d", i)}
		if name, url, ok := strings.Cut(part, "="); ok && !strings.Contains(name, "/") {
			b.Name, part = name, url
		}
		if seen[b.Name] {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateBackend, b.Name)
		}
		seen[b.Name] = true
		if !strings.HasPrefix(part, "http://") && !strings.HasPrefix(part, "https://") {
			part = "http://" + part
		}
		b.URL = strings.TrimRight(part, "/")
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, errors.New("cluster: -backends lists no backends")
	}
	return out, nil
}

// nodeError is a backend failure at the node level — connection
// refused, 5xx, lost job, probe timeout — as opposed to a job-level
// outcome. Node errors are what trigger failover to the next backend
// on the ring; job-level failures would fail identically anywhere
// (the solve is a pure function of the request) and are mirrored.
type nodeError struct {
	backend string
	err     error
}

func (e *nodeError) Error() string {
	return fmt.Sprintf("cluster: backend %s: %v", e.backend, e.err)
}

func (e *nodeError) Unwrap() error { return e.err }

// isNodeError reports whether err warrants failover.
func isNodeError(err error) bool {
	var ne *nodeError
	return errors.As(err, &ne)
}

// IsNodeError reports whether err is a backend node-level failure
// (connection refused, 5xx, 429, lost job) rather than a request-level
// rejection — the HTTP layer maps these to 502.
func IsNodeError(err error) bool { return isNodeError(err) }

// backendJob is the slice of a backend's job JSON the coordinator
// reads; the result payload is relayed opaquely.
type backendJob struct {
	ID     string          `json:"id"`
	State  jobreg.State    `json:"state"`
	Cached bool            `json:"cached"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// Backend call bounds: requestTimeout for each HTTP call, and the
// tighter probeTimeout for each /readyz probe, so one hung backend
// cannot stall a probe round for the whole fleet.
const (
	requestTimeout = 10 * time.Second
	probeTimeout   = 2 * time.Second
)

// client wraps one backend with the coordinator's view of its health.
// Health flips pessimistically on any node error and optimistically on
// any successful call, and the background prober (see Coordinator)
// re-probes /readyz so a dead backend is skipped at routing time
// instead of burning a failed attempt per job.
type client struct {
	b            Backend
	probeTimeout time.Duration // the probeTimeout constant, shortened by tests

	mu      sync.Mutex
	healthy bool
}

func newClient(b Backend) *client {
	return &client{b: b, probeTimeout: probeTimeout, healthy: true}
}

// Healthy reports the coordinator's current belief about the backend.
func (c *client) Healthy() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.healthy
}

func (c *client) setHealth(ok bool) {
	c.mu.Lock()
	c.healthy = ok
	c.mu.Unlock()
}

// do issues one request with the per-call timeout and returns the
// response body. Transport errors and 5xx statuses come back as
// *nodeError; 4xx as plain errors (the request is at fault, not the
// node). A success flips the backend healthy again.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.b.URL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.setHealth(false)
		return 0, nil, &nodeError{backend: c.b.Name, err: err}
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		c.setHealth(false)
		return 0, nil, &nodeError{backend: c.b.Name, err: err}
	}
	if resp.StatusCode >= 500 {
		c.setHealth(false)
		return resp.StatusCode, out, &nodeError{backend: c.b.Name, err: fmt.Errorf("%s %s -> %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(out)))}
	}
	c.setHealth(true)
	return resp.StatusCode, out, nil
}

// submit POSTs a job body to the backend and returns the backend's job
// ID. A 429 (backpressure) is a node-level condition — the node is
// alive but saturated, so the job should try the next ring backend.
func (c *client) submit(ctx context.Context, body []byte) (string, error) {
	status, out, err := c.do(ctx, http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return "", err
	}
	if status == http.StatusTooManyRequests {
		return "", &nodeError{backend: c.b.Name, err: errors.New("queue full (429)")}
	}
	if status != http.StatusAccepted {
		return "", fmt.Errorf("cluster: backend %s rejected job: %d: %s", c.b.Name, status, strings.TrimSpace(string(out)))
	}
	var bj backendJob
	if err := json.Unmarshal(out, &bj); err != nil || bj.ID == "" {
		return "", &nodeError{backend: c.b.Name, err: fmt.Errorf("unparseable submit response %q", out)}
	}
	return bj.ID, nil
}

// patch submits an ECO delta against a backend job and returns the new
// backend job ID. Unlike submit there is no failover retry semantics
// at the call site: the warm-start cache entry lives only on the node
// that solved the base job, so the delta is pinned there and a node
// failure fails the delta (the caller re-PATCHes). The HTTP status is
// returned so the coordinator can classify 404/409 rejections.
func (c *client) patch(ctx context.Context, id string, body []byte) (string, int, error) {
	status, out, err := c.do(ctx, http.MethodPatch, "/v1/jobs/"+id, body)
	if err != nil {
		return "", status, err
	}
	switch status {
	case http.StatusAccepted:
		var bj backendJob
		if err := json.Unmarshal(out, &bj); err != nil || bj.ID == "" {
			return "", status, &nodeError{backend: c.b.Name, err: fmt.Errorf("unparseable patch response %q", out)}
		}
		return bj.ID, status, nil
	case http.StatusTooManyRequests:
		return "", status, &nodeError{backend: c.b.Name, err: errors.New("queue full (429)")}
	default:
		return "", status, fmt.Errorf("cluster: backend %s rejected delta: %d: %s",
			c.b.Name, status, strings.TrimSpace(string(out)))
	}
}

// poll fetches the backend's view of a job. A 404 means the backend
// lost the job (it restarted and its registry is gone) — a node error,
// because the cure is resubmission elsewhere.
func (c *client) poll(ctx context.Context, id string) (*backendJob, error) {
	status, out, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	if status == http.StatusNotFound {
		return nil, &nodeError{backend: c.b.Name, err: fmt.Errorf("job %s unknown (backend restarted?)", id)}
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("cluster: backend %s poll -> %d: %s", c.b.Name, status, strings.TrimSpace(string(out)))
	}
	var bj backendJob
	if err := json.Unmarshal(out, &bj); err != nil {
		return nil, &nodeError{backend: c.b.Name, err: fmt.Errorf("unparseable poll response: %v", err)}
	}
	return &bj, nil
}

// cancel best-effort DELETEs a job on the backend.
func (c *client) cancel(ctx context.Context, id string) {
	_, _, _ = c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil)
}

// probe checks /readyz under its own probe timeout — tighter than the
// general request timeout, because a probe that needs ten seconds has
// already answered the question. Ready means route new work here; a
// live but degraded backend (503) stays unhealthy for routing yet
// needs no failover of running jobs — probe errors, not degradation,
// mark the node dead.
func (c *client) probe(ctx context.Context) bool {
	ctx, cancel := context.WithTimeout(ctx, c.probeTimeout)
	defer cancel()
	status, _, err := c.do(ctx, http.MethodGet, "/readyz", nil)
	ok := err == nil && status == http.StatusOK
	if err == nil {
		// do() flipped healthy on any non-5xx response; readiness is
		// stricter — only a 200 should attract new work.
		c.setHealth(ok)
	}
	return ok
}

// metrics fetches the backend's raw /metrics JSON.
func (c *client) metrics(ctx context.Context) (json.RawMessage, error) {
	status, out, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("cluster: backend %s metrics -> %d", c.b.Name, status)
	}
	return json.RawMessage(out), nil
}

// readyz fetches the backend's raw /readyz payload plus its status.
func (c *client) readyz(ctx context.Context) (bool, json.RawMessage) {
	status, out, err := c.do(ctx, http.MethodGet, "/readyz", nil)
	if err != nil {
		return false, nil
	}
	return status == http.StatusOK, json.RawMessage(out)
}
