package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"igpart"
	"igpart/internal/cluster"
	"igpart/internal/fault"
	"igpart/internal/jobreg"
	"igpart/internal/obs"
	"igpart/internal/service"
)

// clusterBackend is one real igpartd node under test: a full service
// engine behind the single-node HTTP façade.
type clusterBackend struct {
	name   string
	engine *service.Engine
	reg    *obs.Registry
	ts     *httptest.Server
	pinID  string
}

// stallPin arms worker.stall once: the first job a backend runs, its
// pin, holds the single worker until the pin is cancelled, however fast
// that solve would be.
var stallPin = fault.Rule{Point: fault.WorkerStall, Limit: 1}

// newClusterBackend starts a one-worker backend whose engine arms the
// given fault rules, none by default.
func newClusterBackend(t *testing.T, name string, rules ...fault.Rule) *clusterBackend {
	t.Helper()
	inj, err := fault.New(1, nil, rules...)
	if err != nil {
		t.Fatal(err)
	}
	reg := new(obs.Registry)
	engine := service.New(service.Config{Workers: 1, Metrics: reg, Fault: inj})
	ts := httptest.NewServer(newServer(engine, serverConfig{}))
	b := &clusterBackend{name: name, engine: engine, reg: reg, ts: ts}
	t.Cleanup(func() {
		ts.Close()
		// Backends may hold deliberately long pin jobs; a short deadline
		// force-cancels them instead of waiting the solve out.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = engine.Shutdown(ctx)
	})
	return b
}

// pin occupies the backend's single worker with a job submitted
// directly (not through the coordinator), so coordinator jobs routed to
// this backend queue without completing. Under stallPin the pin holds
// until it is cancelled; elsewhere it lasts one full-size Prim2 solve.
func (b *clusterBackend) pin(t *testing.T) {
	t.Helper()
	body, _ := bookshelfPayload(t, "Prim2", 1.0, map[string]any{"parallelism": 1})
	code, j := postJob(t, b.ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("pin %s: status %d", b.name, code)
	}
	b.pinID = j.ID
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, s := getJob(t, b.ts, j.ID)
		if s.State == string(jobreg.StateRunning) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pin %s never started (state %q)", b.name, s.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (b *clusterBackend) submitted() int64 {
	return b.reg.Counter("service.jobs_submitted").Value()
}

// testCoordinator builds a coordinator + HTTP façade over the given
// backends with fast test timings.
func testCoordinator(t *testing.T, journalPath string, probe time.Duration, backends ...*clusterBackend) (*httptest.Server, *cluster.Coordinator) {
	t.Helper()
	cfg := cluster.Config{
		ProbeInterval:  probe,
		RetryBaseDelay: 2 * time.Millisecond,
		RetryMaxDelay:  10 * time.Millisecond,
		Metrics:        new(obs.Registry),
	}
	for _, b := range backends {
		cfg.Backends = append(cfg.Backends, cluster.Backend{Name: b.name, URL: b.ts.URL})
	}
	var replay []cluster.Record
	if journalPath != "" {
		j, recs, err := cluster.OpenJournal(journalPath)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Journal = j
		replay = recs
	}
	coord, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord.Recover(replay)
	ts := httptest.NewServer(newCoordServer(coord, "", 0))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = coord.Shutdown(ctx)
	})
	return ts, coord
}

// batchBody builds a /v1/batches payload: n jobs over one netlist with
// seeds 1..n — one routing key, so the whole batch lands on the ring
// owner of that netlist, while the distinct seeds make each job a
// distinct solve (and a distinct backend cache entry). The returned
// netlist is the bookshelf round trip of the generated one — the exact
// netlist the coordinator hashes for routing and the backends solve.
func batchBody(t *testing.T, bench string, scale float64, n int) ([]byte, *igpart.Netlist) {
	t.Helper()
	cfg, ok := igpart.Benchmark(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	gen, err := igpart.Generate(cfg.Scaled(scale))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	var nodes, nets bytes.Buffer
	if err := igpart.WriteBookshelf(&nodes, &nets, gen); err != nil {
		t.Fatalf("write bookshelf: %v", err)
	}
	h, err := loadNetlist(&submitRequest{
		Bookshelf: &bookshelfPair{Nodes: nodes.String(), Nets: nets.String()},
	}, "", nil)
	if err != nil {
		t.Fatalf("round-trip netlist: %v", err)
	}
	jobs := make([]map[string]any, n)
	for i := range jobs {
		jobs[i] = map[string]any{
			"bookshelf": map[string]string{"nodes": nodes.String(), "nets": nets.String()},
			"seed":      i + 1,
		}
	}
	body, err := json.Marshal(map[string]any{"jobs": jobs})
	if err != nil {
		t.Fatalf("marshal batch: %v", err)
	}
	return body, h
}

func routingKey(h *igpart.Netlist) string {
	return fmt.Sprintf("%x", sha256.Sum256(h.CanonicalBytes()))
}

// streamBatch POSTs a batch and returns the response body reader; the
// caller reads NDJSON events off it as completions arrive.
func streamBatch(t *testing.T, ctx context.Context, url string, body []byte) (*bufio.Reader, func()) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/batches", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/batches: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status = %d, want 202", resp.StatusCode)
	}
	return bufio.NewReader(resp.Body), func() { resp.Body.Close() }
}

func readEvent(t *testing.T, br *bufio.Reader) batchEvent {
	t.Helper()
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("read batch stream: %v (partial %q)", err, line)
	}
	var ev batchEvent
	if err := json.Unmarshal(line, &ev); err != nil {
		t.Fatalf("decode event %q: %v", line, err)
	}
	return ev
}

// TestClusterChaosFailover is the acceptance chaos path: two real
// backends, a batch routed entirely to the ring owner, the owner
// SIGKILLed (connection-level death) mid-batch. Every accepted job must
// still reach a terminal state — completed on the survivor — with a
// ratio cut identical to what a single-node solve computes, and the
// failover must be visible in the resubmit counter.
func TestClusterChaosFailover(t *testing.T) {
	const n = 6
	body, h := batchBody(t, "bm1", 0.25, n)
	// Only the ring owner of the batch's netlist stalls its pin, so no
	// batch job can complete there before the kill, while the survivor
	// runs every job it is handed.
	ring, err := cluster.NewRing([]string{"b0", "b1"})
	if err != nil {
		t.Fatal(err)
	}
	var owner, survivor *clusterBackend
	if ring.Owner(routingKey(h)) == "b0" {
		owner, survivor = newClusterBackend(t, "b0", stallPin), newClusterBackend(t, "b1")
	} else {
		survivor, owner = newClusterBackend(t, "b0"), newClusterBackend(t, "b1", stallPin)
	}
	cts, coord := testCoordinator(t, filepath.Join(t.TempDir(), "journal.jsonl"), -1, owner, survivor)
	if got := coord.Ring().Owner(routingKey(h)); got != owner.name {
		t.Fatalf("coordinator routes the batch to %s, want %s", got, owner.name)
	}
	// Single-node ground truth per seed (solves are deterministic).
	direct := make(map[int64]float64, n)
	for seed := int64(1); seed <= n; seed++ {
		res, err := igpart.IGMatch(h, igpart.IGMatchOptions{Seed: seed})
		if err != nil {
			t.Fatalf("direct IGMatch seed %d: %v", seed, err)
		}
		direct[seed] = res.Metrics.RatioCut
	}

	// Pin the owner's only worker so no batch job can complete before
	// the kill — the whole batch is mid-flight by construction.
	owner.pin(t)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	br, closeStream := streamBatch(t, ctx, cts.URL, body)
	defer closeStream()
	accepted := readEvent(t, br)
	if accepted.Event != "accepted" || len(accepted.Jobs) != n {
		t.Fatalf("first event = %+v, want accepted with %d jobs", accepted, n)
	}

	// Wait until the coordinator has handed every job to the owner, then
	// kill it (pin job + n batch jobs = n+1 submissions).
	deadline := time.Now().Add(30 * time.Second)
	for owner.submitted() < n+1 {
		if time.Now().After(deadline) {
			t.Fatalf("owner saw %d submissions, want %d", owner.submitted(), n+1)
		}
		time.Sleep(2 * time.Millisecond)
	}
	owner.ts.CloseClientConnections()
	owner.ts.Close()
	// Release the pin, so the owner's cleanup drains its queue instead
	// of waiting out the drain budget.
	owner.engine.Cancel(owner.pinID)

	// Every job completes on the survivor, after at least one failover
	// hop, with the single-node result.
	matchedSeeds := make(map[int64]bool)
	for i := 0; i < n; i++ {
		ev := readEvent(t, br)
		if ev.Event != "job" {
			t.Fatalf("event %d = %+v, want a job completion", i, ev)
		}
		if ev.State != string(jobreg.StateDone) {
			t.Fatalf("job %s ended %q (err %q), want done", ev.ID, ev.State, ev.Error)
		}
		if ev.Backend != survivor.name {
			t.Errorf("job %s completed on %s, want survivor %s", ev.ID, ev.Backend, survivor.name)
		}
		if ev.Resubmits < 1 {
			t.Errorf("job %s resubmits = %d, want >= 1 (owner was killed)", ev.ID, ev.Resubmits)
		}
		if ev.Span == nil || ev.Span.Name != "job:"+ev.ID {
			t.Errorf("job %s span = %+v, want job:%s", ev.ID, ev.Span, ev.ID)
		}
		var res struct {
			RatioCut float64 `json:"ratio_cut"`
		}
		if err := json.Unmarshal(ev.Result, &res); err != nil {
			t.Fatalf("job %s result %q: %v", ev.ID, ev.Result, err)
		}
		// Multiset-match the result back to the per-seed single-node
		// ground truth: every streamed ratio cut must equal one
		// still-unclaimed direct solve's.
		matched := false
		for seed, want := range direct {
			if !matchedSeeds[seed] && res.RatioCut == want {
				matchedSeeds[seed] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("job %s ratio cut %g matches no single-node result %v", ev.ID, res.RatioCut, direct)
		}
	}
	summary := readEvent(t, br)
	if summary.Event != "batch" || summary.Done != n || summary.Failed != 0 {
		t.Fatalf("summary = %+v, want batch done=%d failed=0", summary, n)
	}
	if summary.Span == nil || len(summary.Span.Children) != n {
		t.Fatalf("batch span = %+v, want %d child job spans", summary.Span, n)
	}
	if got := coord.Metrics().Counter("cluster.failover.resubmits").Value(); got < int64(n) {
		t.Errorf("cluster.failover.resubmits = %d, want >= %d", got, n)
	}
}

// TestClusterBatchStreamAndAggregates is the healthy-fleet path: a
// batch spread over real backends streams per-job completions with
// spans, and the aggregate /metrics and /readyz views cover the fleet.
func TestClusterBatchStreamAndAggregates(t *testing.T) {
	b0 := newClusterBackend(t, "b0")
	b1 := newClusterBackend(t, "b1")
	cts, _ := testCoordinator(t, "", 20*time.Millisecond, b0, b1)

	const n = 3
	body, _ := batchBody(t, "bm1", 0.2, n)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	br, closeStream := streamBatch(t, ctx, cts.URL, body)
	defer closeStream()

	accepted := readEvent(t, br)
	if accepted.Event != "accepted" || len(accepted.Jobs) != n || accepted.Batch == "" {
		t.Fatalf("accepted event = %+v", accepted)
	}
	for i := 0; i < n; i++ {
		ev := readEvent(t, br)
		if ev.Event != "job" || ev.State != string(jobreg.StateDone) {
			t.Fatalf("job event = %+v, want done", ev)
		}
		if ev.Result == nil || ev.Span == nil || ev.Span.Counters["attempts"] != 1 {
			t.Fatalf("job event missing result/span: %+v", ev)
		}
	}
	summary := readEvent(t, br)
	if summary.Event != "batch" || summary.Done != n {
		t.Fatalf("summary = %+v", summary)
	}

	// Aggregated metrics: the coordinator's own counters plus one entry
	// per backend, each a verbatim backend snapshot.
	resp, err := http.Get(cts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var agg struct {
		Coordinator obs.MetricsSnapshot        `json:"coordinator"`
		Backends    map[string]json.RawMessage `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	if agg.Coordinator.Counters["cluster.jobs_completed"] != n {
		t.Errorf("aggregate jobs_completed = %d, want %d", agg.Coordinator.Counters["cluster.jobs_completed"], n)
	}
	if len(agg.Backends) != 2 {
		t.Fatalf("aggregate covers %d backends, want 2", len(agg.Backends))
	}
	var total int64
	for name, raw := range agg.Backends {
		var snap obs.MetricsSnapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatalf("backend %s metrics: %v", name, err)
		}
		total += snap.Counters["service.jobs_submitted"]
	}
	if total != n {
		t.Errorf("backends saw %d submissions in aggregate, want %d", total, n)
	}

	// Fleet readiness: all up -> ok; one dead -> degraded but still 200.
	resp, err = http.Get(cts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var health clusterHealthJSON
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || health.Status != "ok" || health.Ready != 2 {
		t.Fatalf("healthy-fleet readyz = %d %+v", resp.StatusCode, health)
	}
	b1.ts.Close()
	resp, err = http.Get(cts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || health.Status != "degraded" || health.Ready != 1 {
		t.Fatalf("degraded-fleet readyz = %d %+v", resp.StatusCode, health)
	}
}

// TestClusterCoordinatorRestartReplaysJournal reboots the coordinator
// HTTP tier mid-batch: jobs accepted (journaled) but unfinished at the
// crash must complete after the restart, queryable under their original
// IDs, without the client resubmitting anything.
func TestClusterCoordinatorRestartReplaysJournal(t *testing.T) {
	b0 := newClusterBackend(t, "b0", stallPin)
	b1 := newClusterBackend(t, "b1", stallPin)
	journal := filepath.Join(t.TempDir(), "journal.jsonl")

	// Pin both backends: nothing the batch submits can complete, so the
	// crash abandons the whole accepted set.
	b0.pin(t)
	b1.pin(t)

	cts1, coord1 := testCoordinator(t, journal, -1, b0, b1)
	const n = 3
	body, _ := batchBody(t, "bm1", 0.2, n)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	br, closeStream := streamBatch(t, ctx, cts1.URL, body)
	accepted := readEvent(t, br)
	closeStream() // the client walks away; acceptance is durable anyway
	if accepted.Event != "accepted" || len(accepted.Jobs) != n {
		t.Fatalf("accepted event = %+v", accepted)
	}
	// All jobs dispatched to some backend (2 pins + n batch jobs).
	deadline := time.Now().Add(30 * time.Second)
	for b0.submitted()+b1.submitted() < n+2 {
		if time.Now().After(deadline) {
			t.Fatalf("backends saw %d submissions, want %d", b0.submitted()+b1.submitted(), n+2)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Crash the coordinator: expired drain budget, runners abort without
	// journaling completions.
	cts1.Close()
	crashCtx, crashCancel := context.WithCancel(context.Background())
	crashCancel()
	if err := coord1.Shutdown(crashCtx); err == nil {
		t.Fatal("crash-style shutdown reported a clean drain")
	}

	// Unpin the workers, then reboot onto the same journal.
	for _, b := range []*clusterBackend{b0, b1} {
		req, _ := http.NewRequest(http.MethodDelete, b.ts.URL+"/v1/jobs/"+b.pinID, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
	cts2, coord2 := testCoordinator(t, journal, -1, b0, b1)
	if got := coord2.Metrics().Counter("cluster.journal.replayed").Value(); got != n {
		t.Fatalf("journal replay resubmitted %d jobs, want %d", got, n)
	}
	for _, id := range accepted.Jobs {
		final := pollClusterJob(t, cts2, id, 60*time.Second)
		if final.State != string(jobreg.StateDone) {
			t.Fatalf("replayed job %s ended %q (err %q), want done", id, final.State, final.Error)
		}
		if final.Result == nil {
			t.Fatalf("replayed job %s has no result", id)
		}
	}
}

// pollClusterJob polls the coordinator's GET /v1/jobs/{id} until the
// job is terminal.
func pollClusterJob(t *testing.T, ts *httptest.Server, id string, within time.Duration) coordJobJSON {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET /v1/jobs/%s: %v", id, err)
		}
		var j coordJobJSON
		err = json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s: status %d, err %v", id, resp.StatusCode, err)
		}
		if jobreg.State(j.State).Terminal() {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after %v", id, j.State, within)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
