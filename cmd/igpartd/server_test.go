package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"igpart"
	"igpart/internal/jobreg"
	"igpart/internal/obs"
	"igpart/internal/service"
)

// testServer boots an httptest server over a fresh engine.
func testServer(t *testing.T, cfg service.Config, scfg serverConfig) (*httptest.Server, *service.Engine) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = new(obs.Registry)
	}
	engine := service.New(cfg)
	ts := httptest.NewServer(newServer(engine, scfg))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = engine.Shutdown(ctx)
	})
	return ts, engine
}

// bookshelfPayload serializes a generated benchmark as a submit body.
func bookshelfPayload(t *testing.T, bench string, scale float64, extra map[string]any) ([]byte, *igpart.Netlist) {
	t.Helper()
	cfg, ok := igpart.Benchmark(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	h, err := igpart.Generate(cfg.Scaled(scale))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	var nodes, nets bytes.Buffer
	if err := igpart.WriteBookshelf(&nodes, &nets, h); err != nil {
		t.Fatalf("write bookshelf: %v", err)
	}
	body := map[string]any{
		"bookshelf": map[string]string{"nodes": nodes.String(), "nets": nets.String()},
	}
	for k, v := range extra {
		body[k] = v
	}
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return buf, h
}

func postJob(t *testing.T, ts *httptest.Server, body []byte) (int, jobJSON) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var j jobJSON
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatalf("decode job: %v", err)
		}
	}
	return resp.StatusCode, j
}

func getJob(t *testing.T, ts *httptest.Server, id string) (int, jobJSON) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET /v1/jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	var j jobJSON
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatalf("decode job: %v", err)
		}
	}
	return resp.StatusCode, j
}

// pollTerminal polls until the job reaches a terminal state.
func pollTerminal(t *testing.T, ts *httptest.Server, id string, within time.Duration) jobJSON {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		code, j := getJob(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if jobreg.State(j.State).Terminal() {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after %v", id, j.State, within)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func metricCounter(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var snap obs.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	return snap.Counters[name]
}

// TestSubmitPollResult is the core round trip: a Bookshelf submission
// must come back with exactly the ratio cut a direct igpart.IGMatch
// call computes, and a byte-identical resubmission must be served from
// the cache without a second solve.
func TestSubmitPollResult(t *testing.T) {
	ts, _ := testServer(t, service.Config{Workers: 2}, serverConfig{})
	body, h := bookshelfPayload(t, "bm1", 0.25, nil)

	direct, err := igpart.IGMatch(h)
	if err != nil {
		t.Fatalf("direct IGMatch: %v", err)
	}

	code, j := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	done := pollTerminal(t, ts, j.ID, 30*time.Second)
	if done.State != string(jobreg.StateDone) {
		t.Fatalf("state = %q (err %q), want done", done.State, done.Error)
	}
	if done.Cached {
		t.Fatal("first run reported cached")
	}
	res := done.Result
	if res == nil {
		t.Fatal("done job has no result")
	}
	if res.RatioCut != direct.Metrics.RatioCut || res.CutNets != direct.Metrics.CutNets {
		t.Fatalf("served result (cut %d, ratio %g) != direct (cut %d, ratio %g)",
			res.CutNets, res.RatioCut, direct.Metrics.CutNets, direct.Metrics.RatioCut)
	}
	if len(res.Sides) != h.NumModules() {
		t.Fatalf("sides length %d, want %d", len(res.Sides), h.NumModules())
	}
	if res.Stages == nil || res.Stages.Find("sweep") == nil {
		t.Fatal("result missing the solve stage tree")
	}

	// Identical resubmission: cache hit, no second solve span recorded.
	hits := metricCounter(t, ts, "service.cache_hits")
	code, j2 := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit status = %d, want 202", code)
	}
	done2 := pollTerminal(t, ts, j2.ID, 10*time.Second)
	if done2.State != string(jobreg.StateDone) || !done2.Cached {
		t.Fatalf("resubmit state=%q cached=%v, want done from cache", done2.State, done2.Cached)
	}
	if got := metricCounter(t, ts, "service.cache_hits"); got != hits+1 {
		t.Fatalf("cache_hits = %d, want %d", got, hits+1)
	}
	if done2.Result.RatioCut != res.RatioCut {
		t.Fatal("cached result differs from original")
	}
}

// TestQueueFull429 exercises explicit-rejection backpressure end to
// end: one worker pinned by a long job, a one-deep queue filled by a
// second, and a third submission answered 429.
func TestQueueFull429(t *testing.T) {
	ts, _ := testServer(t, service.Config{Workers: 1, QueueDepth: 1, CacheEntries: -1}, serverConfig{})
	big, _ := bookshelfPayload(t, "Prim2", 1.0, map[string]any{"parallelism": 1})

	code, j1 := postJob(t, ts, big)
	if code != http.StatusAccepted {
		t.Fatalf("job 1 status = %d", code)
	}
	// Wait until job 1 occupies the worker so job 2 stays queued.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, j := getJob(t, ts, j1.ID)
		if j.State == string(jobreg.StateRunning) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job 1 never started (state %q)", j.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	code, j2 := postJob(t, ts, big)
	if code != http.StatusAccepted {
		t.Fatalf("job 2 status = %d, want 202 (queued)", code)
	}
	code, _ = postJob(t, ts, big)
	if code != http.StatusTooManyRequests {
		t.Fatalf("job 3 status = %d, want 429", code)
	}
	if got := metricCounter(t, ts, "service.jobs_rejected"); got != 1 {
		t.Fatalf("jobs_rejected = %d, want 1", got)
	}

	// Cancel both so cleanup doesn't wait out two Prim2 solves.
	for _, id := range []string{j1.ID, j2.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
}

// TestCancelRunningJob covers DELETE on an in-flight job: the solve
// must stop at a cancellation poll point well inside the 2s bound.
func TestCancelRunningJob(t *testing.T) {
	ts, _ := testServer(t, service.Config{Workers: 1, CacheEntries: -1}, serverConfig{})
	big, _ := bookshelfPayload(t, "Prim2", 1.0, map[string]any{"parallelism": 1})

	code, j := postJob(t, ts, big)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, s := getJob(t, ts, j.ID)
		if s.State == string(jobreg.StateRunning) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started (state %q)", s.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(30 * time.Millisecond) // let the solve get into the pipeline

	start := time.Now()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d, want 200", resp.StatusCode)
	}
	done := pollTerminal(t, ts, j.ID, 2*time.Second)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want < 2s", elapsed)
	}
	if done.State != string(jobreg.StateCancelled) {
		t.Fatalf("state = %q, want cancelled", done.State)
	}

	// The worker must be reusable after a cancellation.
	small, _ := bookshelfPayload(t, "bm1", 0.2, nil)
	code, j2 := postJob(t, ts, small)
	if code != http.StatusAccepted {
		t.Fatalf("post-cancel submit status = %d", code)
	}
	if after := pollTerminal(t, ts, j2.ID, 30*time.Second); after.State != string(jobreg.StateDone) {
		t.Fatalf("post-cancel job state = %q, want done", after.State)
	}
}

// TestShutdownDrainsInFlight mirrors the SIGTERM path: HTTP intake
// stops, the engine drains the in-flight job to completion, and later
// submissions are refused with 503.
func TestShutdownDrainsInFlight(t *testing.T) {
	ts, engine := testServer(t, service.Config{Workers: 1}, serverConfig{})
	body, _ := bookshelfPayload(t, "bm1", 0.25, nil)

	code, j := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := engine.Shutdown(ctx); err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
	_, done := getJob(t, ts, j.ID)
	if done.State != string(jobreg.StateDone) {
		t.Fatalf("drained job state = %q, want done", done.State)
	}
	code, _ = postJob(t, ts, body)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit status = %d, want 503", code)
	}
}

// TestBadRequests covers the validation surface.
func TestBadRequests(t *testing.T) {
	ts, _ := testServer(t, service.Config{Workers: 1}, serverConfig{maxBody: 1024})

	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty", `{}`, http.StatusBadRequest},
		{"bad json", `{`, http.StatusBadRequest},
		{"unknown field", `{"nope": 1}`, http.StatusBadRequest},
		{"both sources", `{"path": "x.hgr", "bookshelf": {"nodes": "", "nets": ""}}`, http.StatusBadRequest},
		{"path disabled", `{"path": "x.hgr"}`, http.StatusBadRequest},
		{"bad algo", `{"bookshelf": {"nodes": "NumNodes : 0", "nets": "NumNets : 0\nNumPins : 0"}, "algo": "magic"}`, http.StatusBadRequest},
		{"oversized", `{"bookshelf": {"nodes": "` + strings.Repeat("x", 2048) + `"}}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		code, _ := postJob(t, ts, []byte(tc.body))
		if code != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, code, tc.want)
		}
	}

	if code, _ := getJob(t, ts, "job-999"); code != http.StatusNotFound {
		t.Errorf("unknown job GET status = %d, want 404", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/job-999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job DELETE status = %d, want 404", resp.StatusCode)
	}
}

// TestPathTraversalRejected locks down the server-side path loader.
func TestPathTraversalRejected(t *testing.T) {
	dir := t.TempDir()
	ts, _ := testServer(t, service.Config{Workers: 1}, serverConfig{dataDir: dir})
	for _, p := range []string{"../secrets.hgr", "/etc/passwd", "a/../../b.hgr"} {
		body, _ := json.Marshal(map[string]string{"path": p})
		if code, _ := postJob(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("path %q: status = %d, want 400", p, code)
		}
	}
	// A missing-but-local path is a 400 from the loader, not a panic.
	body, _ := json.Marshal(map[string]string{"path": "missing.hgr"})
	if code, _ := postJob(t, ts, body); code != http.StatusBadRequest {
		t.Errorf("missing path: status = %d, want 400", code)
	}
}

// TestHealthAndMetrics sanity-checks the probe endpoints.
func TestHealthAndMetrics(t *testing.T) {
	ts, _ := testServer(t, service.Config{Workers: 1}, serverConfig{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	body, _ := bookshelfPayload(t, "bm1", 0.2, nil)
	code, j := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	pollTerminal(t, ts, j.ID, 30*time.Second)
	if got := metricCounter(t, ts, "service.jobs_submitted"); got != 1 {
		t.Fatalf("jobs_submitted = %d, want 1", got)
	}
	if got := metricCounter(t, ts, "service.jobs_completed"); got != 1 {
		t.Fatalf("jobs_completed = %d, want 1", got)
	}
}

// TestServerSidePath loads a netlist from the -data directory.
func TestServerSidePath(t *testing.T) {
	dir := t.TempDir()
	cfg, _ := igpart.Benchmark("bm1")
	h, err := igpart.Generate(cfg.Scaled(0.2))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if err := igpart.Save(dir+"/bm1.hgr", h); err != nil {
		t.Fatalf("save: %v", err)
	}
	ts, _ := testServer(t, service.Config{Workers: 1}, serverConfig{dataDir: dir})
	body, _ := json.Marshal(map[string]string{"path": "bm1.hgr"})
	code, j := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	done := pollTerminal(t, ts, j.ID, 30*time.Second)
	if done.State != string(jobreg.StateDone) {
		t.Fatalf("state = %q (err %q), want done", done.State, done.Error)
	}
	direct, err := igpart.IGMatch(h)
	if err != nil {
		t.Fatalf("direct: %v", err)
	}
	if done.Result.RatioCut != direct.Metrics.RatioCut {
		t.Fatalf("served ratio %g != direct %g", done.Result.RatioCut, direct.Metrics.RatioCut)
	}
}

// TestSubmitKWayEndToEnd is the acceptance path for balanced k-way over
// HTTP: POST a k=4 job with an imbalance budget and two fixed modules,
// poll it to completion, and verify the JSON result delivers exactly 4
// capped parts with both pinned modules on their pinned parts.
func TestSubmitKWayEndToEnd(t *testing.T) {
	ts, _ := testServer(t, service.Config{Workers: 2}, serverConfig{})
	// Generation is deterministic, so a first payload reveals the module
	// names the fix list needs.
	_, h := bookshelfPayload(t, "Prim1", 0.12, nil)
	mA, mB := h.ModuleName(0), h.ModuleName(1)
	body, _ := bookshelfPayload(t, "Prim1", 0.12, map[string]any{
		"algo": "kway", "k": 4, "eps": 0.1,
		"fix": []map[string]any{
			{"module": mA, "part": 2},
			{"module": mB, "part": 0},
		},
	})
	code, j := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d, want 202", code)
	}
	j = pollTerminal(t, ts, j.ID, 30*time.Second)
	if j.State != string(jobreg.StateDone) {
		t.Fatalf("job state %q err %q, want done", j.State, j.Error)
	}
	res := j.Result
	if res == nil || res.Algo != "kway" || res.K != 4 {
		t.Fatalf("result %+v, want algo kway k=4", res)
	}
	if len(res.Parts) != h.NumModules() || len(res.PartSizes) != 4 {
		t.Fatalf("parts=%d part_sizes=%d, want %d/4", len(res.Parts), len(res.PartSizes), h.NumModules())
	}
	for p, sz := range res.PartSizes {
		if sz == 0 || sz > res.Cap {
			t.Fatalf("part %d size %d outside (0,%d]", p, sz, res.Cap)
		}
	}
	if res.Parts[0] != 2 || res.Parts[1] != 0 {
		t.Fatalf("pinned modules landed on parts %d/%d, want 2/0", res.Parts[0], res.Parts[1])
	}
	if res.SpanningNets <= 0 || res.Connectivity < res.SpanningNets {
		t.Fatalf("metrics spanning=%d connectivity=%d inconsistent", res.SpanningNets, res.Connectivity)
	}
	if len(res.Sides) != 0 {
		t.Fatalf("kway result carries %d bipartition sides", len(res.Sides))
	}
}

// TestSubmitKWayBadRequests pins the HTTP classification of invalid
// k-way submissions: all 400, never enqueued.
func TestSubmitKWayBadRequests(t *testing.T) {
	ts, _ := testServer(t, service.Config{Workers: 1}, serverConfig{})
	cases := []map[string]any{
		{"algo": "kway", "k": 1},
		{"algo": "kway", "k": 4, "eps": -0.5},
		{"algo": "kway-spectral", "k": 4, "fix": []map[string]any{{"module": "no-such-module", "part": 0}}},
		{"algo": "kway", "k": 4, "fix": []map[string]any{{"module": "m0", "part": 9}}},
	}
	for i, extra := range cases {
		body, _ := bookshelfPayload(t, "Prim1", 0.12, extra)
		code, _ := postJob(t, ts, body)
		if code != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, code)
		}
	}
}
