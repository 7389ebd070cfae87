package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"igpart/internal/cluster"
	"igpart/internal/fault"
	"igpart/internal/service"
)

func getStatus(t *testing.T, ts *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
	return resp.StatusCode, body
}

func TestLivenessAndReadinessSplit(t *testing.T) {
	ts, _ := testServer(t, service.Config{Workers: 1}, serverConfig{})
	for _, path := range []string{"/healthz", "/livez"} {
		code, body := getStatus(t, ts, path)
		if code != http.StatusOK || body["status"] != "ok" {
			t.Fatalf("%s = %d %v, want 200 ok", path, code, body)
		}
	}
	code, body := getStatus(t, ts, "/readyz")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("/readyz = %d %v, want 200 ok", code, body)
	}
}

// TestReadyzDegradesOnPanicStreak drives the daemon into degraded mode
// with injected worker panics: /readyz flips to 503 with reasons while
// /healthz and /livez stay 200 — the daemon is sick, not dead.
func TestReadyzDegradesOnPanicStreak(t *testing.T) {
	inj, err := fault.New(1, nil, fault.Rule{Point: fault.WorkerPanic, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts, engine := testServer(t, service.Config{
		Workers: 1, Fault: inj,
	}, serverConfig{inj: inj})

	body, _ := bookshelfPayload(t, "Prim1", 0.1, nil)
	var last jobJSON
	for i := 0; i < 3; i++ {
		code, j := postJob(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, code)
		}
		if jb, ok := engine.Get(j.ID); ok {
			jb.Wait(t.Context())
		}
		_, last = getJob(t, ts, j.ID)
	}
	if last.State != "failed" || !strings.Contains(last.Error, "panic") {
		t.Fatalf("panicking job: state=%s err=%q", last.State, last.Error)
	}
	if last.Stack == "" || !strings.Contains(last.Stack, "goroutine") {
		t.Fatalf("job JSON carries no panic stack: %q", last.Stack)
	}

	code, ready := getStatus(t, ts, "/readyz")
	if code != http.StatusServiceUnavailable || ready["status"] != "degraded" {
		t.Fatalf("/readyz after 3 panics = %d %v, want 503 degraded", code, ready)
	}
	if code, _ := getStatus(t, ts, "/healthz"); code != http.StatusOK {
		t.Fatal("liveness dropped while merely degraded")
	}

	// Injection budget spent: a clean job completes and readiness heals.
	codeOK, j := postJob(t, ts, body)
	if codeOK != http.StatusAccepted {
		t.Fatalf("post-chaos submit = %d", codeOK)
	}
	if jb, ok := engine.Get(j.ID); ok {
		jb.Wait(t.Context())
	}
	if _, jj := getJob(t, ts, j.ID); jj.State != "done" {
		t.Fatalf("post-chaos job state = %s, want done", jj.State)
	}
	if code, _ := getStatus(t, ts, "/readyz"); code != http.StatusOK {
		t.Fatal("readiness did not heal after a clean solve")
	}
}

func TestSubmitBadRequestIs400(t *testing.T) {
	ts, _ := testServer(t, service.Config{Workers: 1}, serverConfig{})
	body, _ := bookshelfPayload(t, "Prim1", 0.1, map[string]any{"timeout_ms": -5})
	code, _ := postJob(t, ts, body)
	if code != http.StatusBadRequest {
		t.Fatalf("negative timeout submit = %d, want 400", code)
	}
	body2, _ := bookshelfPayload(t, "Prim1", 0.1, map[string]any{"block_size": 1 << 20})
	if code, _ := postJob(t, ts, body2); code != http.StatusBadRequest {
		t.Fatalf("absurd block size submit = %d, want 400", code)
	}
}

// TestIOReadErrInjectionIs503 pins the transient-IO contract: an
// injected read failure answers 503 + Retry-After, and the next attempt
// (budget spent) succeeds.
func TestIOReadErrInjectionIs503(t *testing.T) {
	inj, err := fault.New(1, nil, fault.Rule{Point: fault.IOReadErr, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := testServer(t, service.Config{Workers: 1}, serverConfig{inj: inj})
	body, _ := bookshelfPayload(t, "Prim1", 0.1, nil)

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("injected read error = %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if code, _ := postJob(t, ts, body); code != http.StatusAccepted {
		t.Fatalf("retry after transient error = %d, want 202", code)
	}
}

// TestBatchJournalFailureIs500 pins the batch intake contract: a journal
// write failing part way through a batch refuses the whole batch with
// the single-job journal-failure status, and no backend sees a job.
func TestBatchJournalFailureIs500(t *testing.T) {
	b := newClusterBackend(t, "b0")
	j, _, err := cluster.OpenJournal(filepath.Join(t.TempDir(), "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(1, nil, fault.Rule{Point: fault.JournalWriteErr, Every: 3, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	j.SetFault(inj)
	coord, err := cluster.New(cluster.Config{
		Backends:      []cluster.Backend{{Name: b.name, URL: b.ts.URL}},
		ProbeInterval: -1,
		Journal:       j,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newCoordServer(coord, "", 0))
	t.Cleanup(func() {
		ts.Close()
		_ = coord.Shutdown(t.Context())
	})

	body, _ := batchBody(t, "bm1", 0.2, 4)
	got := wireDo(t, ts.URL, http.MethodPost, "/v1/batches", body)
	wireWant{status: http.StatusInternalServerError, keys: []string{"error"}}.check(t, got)
	if n := b.submitted(); n != 0 {
		t.Fatalf("backend received %d job(s) of a refused batch", n)
	}
}
