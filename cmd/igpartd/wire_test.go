package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"igpart/internal/cluster"
	"igpart/internal/jobreg"
	"igpart/internal/service"
)

// wireMaxBody is the body cap every role is served with in the wire
// tests: roomy enough for the inline submissions, small enough that the
// 413 case stays cheap.
const wireMaxBody = 256 << 10

// wireWant is one role's expected answer to one request.
type wireWant struct {
	status int
	retry  bool     // a Retry-After header must be set (and must not otherwise)
	keys   []string // top-level JSON keys that must be present
	may    []string // keys that may also be present; any other key fails
	text   bool     // not a JSON answer (the mux's own plain-text 404)
}

// wireResponse is one raw HTTP exchange.
type wireResponse struct {
	status int
	header http.Header
	body   []byte
}

func wireDo(t *testing.T, base, method, path string, body []byte) wireResponse {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read body: %v", method, path, err)
	}
	return wireResponse{status: resp.StatusCode, header: resp.Header, body: out}
}

// check asserts status, Retry-After and the top-level key set.
func (w wireWant) check(t *testing.T, got wireResponse) {
	t.Helper()
	if got.status != w.status {
		t.Fatalf("status = %d, want %d (body %s)", got.status, w.status, got.body)
	}
	if retry := got.header.Get("Retry-After") != ""; retry != w.retry {
		t.Fatalf("Retry-After present = %v, want %v", retry, w.retry)
	}
	if w.text {
		return
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(got.body, &obj); err != nil {
		t.Fatalf("body is not a JSON object: %v (%s)", err, got.body)
	}
	allowed := make(map[string]bool)
	for _, k := range w.keys {
		if _, ok := obj[k]; !ok {
			t.Fatalf("missing key %q in %s", k, got.body)
		}
		allowed[k] = true
	}
	for _, k := range w.may {
		allowed[k] = true
	}
	var extra []string
	for k := range obj {
		if !allowed[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Fatalf("unexpected keys %v in %s", extra, got.body)
	}
}

// TestWireContract runs one request list against all three igpartd
// roles — the single-node engine, a coordinator over one in-process
// backend, and a warm standby — and pins status, Retry-After and the
// top-level JSON keys of every answer.
func TestWireContract(t *testing.T) {
	engineTS, _ := testServer(t, service.Config{Workers: 1}, serverConfig{maxBody: wireMaxBody})

	backend := newClusterBackend(t, "b0")
	_, coord := testCoordinator(t, "", -1, backend)
	coordTS := httptest.NewServer(newCoordServer(coord, "", wireMaxBody))
	t.Cleanup(coordTS.Close)

	stb := cluster.NewStandby(cluster.StandbyConfig{
		Path:  filepath.Join(t.TempDir(), "journal.jsonl"),
		Owner: "wire-standby",
	})
	standbyTS := httptest.NewServer(newStandbyServer(stb))
	t.Cleanup(standbyTS.Close)

	roles := []struct {
		name string
		url  string
	}{
		{"engine", engineTS.URL},
		{"coordinator", coordTS.URL},
		{"standby", standbyTS.URL},
	}

	inline, _ := bookshelfPayload(t, "bm1", 0.2, nil)
	oversized := []byte(`{"bookshelf": {"nodes": "` + strings.Repeat("x", wireMaxBody+1) + `"}}`)

	errOnly := func(status int) wireWant { return wireWant{status: status, keys: []string{"error"}} }
	notLeader := wireWant{status: http.StatusServiceUnavailable, retry: true, keys: []string{"error"}}
	engineJob := wireWant{
		status: http.StatusAccepted,
		keys:   []string{"id", "state", "submitted"},
		may:    []string{"cached", "error", "stack", "started", "finished", "result"},
	}
	coordJob := wireWant{
		status: http.StatusAccepted,
		keys:   []string{"id", "state", "attempts", "resubmits", "submitted"},
		may:    []string{"backend", "backend_job", "cached", "error", "result", "finished"},
	}
	metrics := []string{"counters", "gauges", "timers"}

	cases := []struct {
		name, method, path string
		body               []byte
		want               map[string]wireWant
	}{
		{"inline submit", http.MethodPost, "/v1/jobs", inline, map[string]wireWant{
			"engine": engineJob, "coordinator": coordJob, "standby": notLeader,
		}},
		{"path submit without -data", http.MethodPost, "/v1/jobs", []byte(`{"path": "bm1.hgr"}`), map[string]wireWant{
			"engine": errOnly(400), "coordinator": errOnly(400), "standby": notLeader,
		}},
		{"bad JSON", http.MethodPost, "/v1/jobs", []byte(`{`), map[string]wireWant{
			"engine": errOnly(400), "coordinator": errOnly(400), "standby": notLeader,
		}},
		{"unknown field", http.MethodPost, "/v1/jobs", []byte(`{"nope": 1}`), map[string]wireWant{
			"engine": errOnly(400), "coordinator": errOnly(400), "standby": notLeader,
		}},
		{"body over the cap", http.MethodPost, "/v1/jobs", oversized, map[string]wireWant{
			"engine": errOnly(413), "coordinator": errOnly(413), "standby": notLeader,
		}},
		{"GET unknown job", http.MethodGet, "/v1/jobs/nope-999", nil, map[string]wireWant{
			"engine": errOnly(404), "coordinator": errOnly(404), "standby": notLeader,
		}},
		{"DELETE unknown job", http.MethodDelete, "/v1/jobs/nope-999", nil, map[string]wireWant{
			"engine": errOnly(404), "coordinator": errOnly(404), "standby": notLeader,
		}},
		{"PATCH unknown base", http.MethodPatch, "/v1/jobs/nope-999", []byte(`{"delta": {"remove_nets": [0]}}`), map[string]wireWant{
			"engine": errOnly(404), "coordinator": errOnly(404), "standby": notLeader,
		}},
		{"empty batch", http.MethodPost, "/v1/batches", []byte(`{"jobs": []}`), map[string]wireWant{
			"engine": {status: 404, text: true}, "coordinator": errOnly(400), "standby": notLeader,
		}},
		{"healthz", http.MethodGet, "/healthz", nil, map[string]wireWant{
			"engine":      {status: 200, keys: []string{"status"}},
			"coordinator": {status: 200, keys: []string{"status", "mode"}},
			"standby":     {status: 200, keys: []string{"status", "mode", "role"}},
		}},
		{"livez", http.MethodGet, "/livez", nil, map[string]wireWant{
			"engine":      {status: 200, keys: []string{"status"}},
			"coordinator": {status: 200, keys: []string{"status", "mode"}},
			"standby":     {status: 200, keys: []string{"status", "mode", "role"}},
		}},
		{"readyz", http.MethodGet, "/readyz", nil, map[string]wireWant{
			"engine":      {status: 200, keys: []string{"status", "queue_depth", "queue_cap"}, may: []string{"reasons", "panic_streak"}},
			"coordinator": {status: 200, keys: []string{"status", "ready", "total", "backends"}},
			"standby": {status: 503, keys: []string{"status", "role", "warm_records", "unfinished", "lease_expires"},
				may: []string{"lease_term", "lease_owner"}},
		}},
		{"metrics", http.MethodGet, "/metrics", nil, map[string]wireWant{
			"engine":      {status: 200, may: metrics},
			"coordinator": {status: 200, keys: []string{"coordinator", "backends"}},
			"standby":     notLeader,
		}},
	}
	for _, tc := range cases {
		for _, r := range roles {
			t.Run(r.name+"/"+tc.name, func(t *testing.T) {
				want, ok := tc.want[r.name]
				if !ok {
					t.Fatalf("no expectation for role %s", r.name)
				}
				want.check(t, wireDo(t, r.url, tc.method, tc.path, tc.body))
			})
		}
	}
}

// decodeWire unmarshals a JSON answer, failing the test on error.
func decodeWire(t *testing.T, got wireResponse, v any) {
	t.Helper()
	if err := json.Unmarshal(got.body, v); err != nil {
		t.Fatalf("decode %s: %v", got.body, err)
	}
}

// TestCoordinatorPatchContract pins the coordinator's PATCH path: a
// delta relays warm through the backend that solved the base, an
// unknown base is 404, a base that is not done yet is 409, and a base
// whose pinned backend is gone is 502.
func TestCoordinatorPatchContract(t *testing.T) {
	b := newClusterBackend(t, "b0")
	cts, _ := testCoordinator(t, "", -1, b)
	delta := []byte(`{"delta": {"remove_nets": [0]}}`)

	body, _ := bookshelfPayload(t, "bm1", 0.25, nil)
	got := wireDo(t, cts.URL, http.MethodPost, "/v1/jobs", body)
	if got.status != http.StatusAccepted {
		t.Fatalf("base submit = %d (%s)", got.status, got.body)
	}
	var base coordJobJSON
	decodeWire(t, got, &base)
	if done := pollClusterJob(t, cts, base.ID, 60*time.Second); done.State != string(jobreg.StateDone) {
		t.Fatalf("base ended %q (%s)", done.State, done.Error)
	}

	// Warm relay through the pinned backend.
	got = wireDo(t, cts.URL, http.MethodPatch, "/v1/jobs/"+base.ID, delta)
	if got.status != http.StatusAccepted {
		t.Fatalf("PATCH done base = %d (%s), want 202", got.status, got.body)
	}
	var dj coordJobJSON
	decodeWire(t, got, &dj)
	if got.header.Get("Location") != "/v1/jobs/"+dj.ID || dj.ID == base.ID {
		t.Fatalf("delta job id %q, Location %q", dj.ID, got.header.Get("Location"))
	}
	final := pollClusterJob(t, cts, dj.ID, 60*time.Second)
	if final.State != string(jobreg.StateDone) || final.Backend != "b0" {
		t.Fatalf("delta job ended %q on %q (%s), want done on b0", final.State, final.Backend, final.Error)
	}
	var res struct {
		Warm bool `json:"warm"`
	}
	if err := json.Unmarshal(final.Result, &res); err != nil || !res.Warm {
		t.Fatalf("delta result %s: warm=%v err=%v, want a warm start", final.Result, res.Warm, err)
	}

	// Unknown base.
	if got := wireDo(t, cts.URL, http.MethodPatch, "/v1/jobs/cjob-999", delta); got.status != http.StatusNotFound {
		t.Fatalf("PATCH unknown base = %d (%s), want 404", got.status, got.body)
	}

	// A base that is not done: pin the backend's only worker so a fresh
	// base (distinct seed, so no cache hit) stays queued there.
	b.pin(t)
	pending, _ := bookshelfPayload(t, "bm1", 0.25, map[string]any{"seed": 2})
	got = wireDo(t, cts.URL, http.MethodPost, "/v1/jobs", pending)
	if got.status != http.StatusAccepted {
		t.Fatalf("pending base submit = %d (%s)", got.status, got.body)
	}
	var pj coordJobJSON
	decodeWire(t, got, &pj)
	if got := wireDo(t, cts.URL, http.MethodPatch, "/v1/jobs/"+pj.ID, delta); got.status != http.StatusConflict {
		t.Fatalf("PATCH unfinished base = %d (%s), want 409", got.status, got.body)
	}
	wireDo(t, cts.URL, http.MethodDelete, "/v1/jobs/"+pj.ID, nil)
	wireDo(t, b.ts.URL, http.MethodDelete, "/v1/jobs/"+b.pinID, nil)

	// The pinned backend is gone: the delta cannot fail over.
	b.ts.CloseClientConnections()
	b.ts.Close()
	if got := wireDo(t, cts.URL, http.MethodPatch, "/v1/jobs/"+base.ID, delta); got.status != http.StatusBadGateway {
		t.Fatalf("PATCH with the pinned backend closed = %d (%s), want 502", got.status, got.body)
	}
}
