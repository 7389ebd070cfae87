package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"igpart/internal/jobreg"
	"igpart/internal/obs"
)

// fakeBackend is a controllable stand-in for an igpartd node: it
// speaks just enough of the /v1/jobs wire protocol for the coordinator
// (including a GET's ?wait=) and lets tests hold jobs open, reject
// submissions, and die.
type fakeBackend struct {
	mu          sync.Mutex
	nextID      int
	jobs        map[string]*fakeJob
	hold        bool     // new jobs stay "running" until released
	rejectWith  int      // non-zero: POST /v1/jobs answers this status
	submissions []int64  // request seeds in arrival order
	cancelled   []string // backend job IDs DELETEd
	gets        int      // GET /v1/jobs/{id} requests
	lostGets    int      // GET /v1/jobs/{id} answered 404
	// changed closes (and is replaced) whenever a job changes state or
	// disappears, waking every GET waiting on a job.
	changed chan struct{}
	srv     *httptest.Server
}

type fakeJob struct {
	seed   int64
	state  jobreg.State
	result json.RawMessage
}

func newFakeBackend() *fakeBackend {
	f := &fakeBackend{jobs: make(map[string]*fakeJob), changed: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", f.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", f.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", f.handleCancel)
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"counters":{"fake":1}}`)
	})
	f.srv = httptest.NewServer(mux)
	return f
}

func (f *fakeBackend) handleSubmit(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rejectWith != 0 {
		w.WriteHeader(f.rejectWith)
		fmt.Fprintf(w, `{"error":"rejected with %d"}`, f.rejectWith)
		return
	}
	var body struct {
		Seed int64 `json:"seed"`
	}
	_ = json.NewDecoder(r.Body).Decode(&body)
	f.nextID++
	id := fmt.Sprintf("fj-%d", f.nextID)
	j := &fakeJob{seed: body.Seed, state: jobreg.StateRunning}
	if !f.hold {
		j.state = jobreg.StateDone
		j.result = json.RawMessage(fmt.Sprintf(`{"algo":"igmatch","ratio_cut":2.5,"seed":%d}`, body.Seed))
	}
	f.jobs[id] = j
	f.submissions = append(f.submissions, body.Seed)
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, `{"id":%q,"state":%q}`, id, j.state)
}

// handleGet answers a job's state. With ?wait= it holds the answer
// until the job is terminal or gone, the wait runs out, or the request
// ends.
func (f *fakeBackend) handleGet(w http.ResponseWriter, r *http.Request) {
	wait, _ := time.ParseDuration(r.URL.Query().Get("wait"))
	expired := time.After(wait)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	j, ok := f.jobs[r.PathValue("id")]
	for ok && !j.state.Terminal() && wait > 0 {
		changed := f.changed
		f.mu.Unlock()
		select {
		case <-changed:
		case <-expired:
			wait = 0
		case <-r.Context().Done():
			wait = 0
		}
		f.mu.Lock()
		j, ok = f.jobs[r.PathValue("id")]
	}
	if !ok {
		f.lostGets++
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"unknown job"}`)
		return
	}
	out := map[string]any{"id": r.PathValue("id"), "state": j.state}
	if j.result != nil {
		out["result"] = j.result
	}
	_ = json.NewEncoder(w).Encode(out)
}

func (f *fakeBackend) handleCancel(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	id := r.PathValue("id")
	f.cancelled = append(f.cancelled, id)
	if j, ok := f.jobs[id]; ok && !j.state.Terminal() {
		j.state = jobreg.StateCancelled
		f.notify()
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, `{}`)
}

// release completes every held job with the given seed.
func (f *fakeBackend) release(seed int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, j := range f.jobs {
		if j.seed == seed && j.state == jobreg.StateRunning {
			j.state = jobreg.StateDone
			j.result = json.RawMessage(fmt.Sprintf(`{"algo":"igmatch","ratio_cut":2.5,"seed":%d}`, j.seed))
		}
	}
	f.notify()
}

// forget drops every job, as a backend that restarted and lost its
// registry would, while the node itself stays up.
func (f *fakeBackend) forget() {
	f.mu.Lock()
	defer f.mu.Unlock()
	clear(f.jobs)
	f.notify()
}

// notify wakes every waiting GET. Call it with f.mu held.
func (f *fakeBackend) notify() {
	close(f.changed)
	f.changed = make(chan struct{})
}

// getCount returns how many job GETs the backend has served.
func (f *fakeBackend) getCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gets
}

func (f *fakeBackend) setHold(hold bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hold = hold
}

func (f *fakeBackend) seeds() []int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int64(nil), f.submissions...)
}

// testCluster builds a coordinator over two fake backends with fast
// test timings. The background prober is off so health transitions are
// driven purely by request outcomes and stay deterministic.
func testCluster(t *testing.T, cfg Config) (*Coordinator, *fakeBackend, *fakeBackend) {
	t.Helper()
	b0, b1 := newFakeBackend(), newFakeBackend()
	t.Cleanup(func() { b0.srv.Close(); b1.srv.Close() })
	cfg.Backends = []Backend{{Name: "b0", URL: b0.srv.URL}, {Name: "b1", URL: b1.srv.URL}}
	cfg.ProbeInterval = -1
	cfg.RetryBaseDelay = time.Millisecond
	cfg.RetryMaxDelay = 4 * time.Millisecond
	if cfg.Metrics == nil {
		cfg.Metrics = new(obs.Registry)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	})
	return c, b0, b1
}

// byName maps ring names onto the fakes.
func byName(c *Coordinator, b0, b1 *fakeBackend, name string) (owner, other *fakeBackend) {
	if name == "b0" {
		return b0, b1
	}
	return b1, b0
}

func seedBody(seed int64) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"seed":%d}`, seed))
}

func waitDone(t *testing.T, j *Job) Snapshot {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s not terminal after 10s: %+v", j.ID(), j.Snapshot())
	}
	return j.Snapshot()
}

func TestCoordinatorRelaysResult(t *testing.T) {
	c, b0, b1 := testCluster(t, Config{})
	key := "some-content-address"
	j, err := c.Submit(key, seedBody(7))
	if err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, j)
	if snap.State != jobreg.StateDone {
		t.Fatalf("state %s, err %q", snap.State, snap.Err)
	}
	if snap.Attempts != 1 || snap.Resubmits != 0 {
		t.Errorf("attempts=%d resubmits=%d, want 1/0", snap.Attempts, snap.Resubmits)
	}
	if snap.Backend != c.Ring().Owner(key) {
		t.Errorf("ran on %s, ring owner is %s", snap.Backend, c.Ring().Owner(key))
	}
	var res struct {
		RatioCut float64 `json:"ratio_cut"`
	}
	if err := json.Unmarshal(snap.Result, &res); err != nil || res.RatioCut != 2.5 {
		t.Errorf("result not relayed verbatim: %s (%v)", snap.Result, err)
	}
	owner, other := byName(c, b0, b1, snap.Backend)
	if len(owner.seeds()) != 1 || len(other.seeds()) != 0 {
		t.Errorf("submissions: owner %v, other %v", owner.seeds(), other.seeds())
	}
	if got := c.Metrics().Counter("cluster.jobs_completed").Value(); got != 1 {
		t.Errorf("jobs_completed = %d", got)
	}
}

// A dead owner at submission time: the first attempt gets connection
// refused and the job fails over to the next backend on the ring.
func TestCoordinatorFailoverDeadOwner(t *testing.T) {
	c, b0, b1 := testCluster(t, Config{})
	key := "dead-owner-key"
	owner, other := byName(c, b0, b1, c.Ring().Owner(key))
	owner.srv.Close()

	snap := waitDone(t, mustSubmit(t, c, key, 1))
	if snap.State != jobreg.StateDone {
		t.Fatalf("state %s, err %q", snap.State, snap.Err)
	}
	if snap.Resubmits < 1 {
		t.Errorf("resubmits = %d, want >= 1", snap.Resubmits)
	}
	if want := c.Ring().Route(key)[1]; snap.Backend != want {
		t.Errorf("failed over to %s, want ring successor %s", snap.Backend, want)
	}
	if len(other.seeds()) != 1 {
		t.Errorf("survivor got %d submissions, want 1", len(other.seeds()))
	}
	if got := c.Metrics().Counter("cluster.failover.resubmits").Value(); got < 1 {
		t.Errorf("cluster.failover.resubmits = %d, want >= 1", got)
	}
}

// The backend dies while the job is running on it: polling hits
// connection refused and the job is resubmitted to the ring successor.
func TestCoordinatorFailoverMidRun(t *testing.T) {
	c, b0, b1 := testCluster(t, Config{})
	key := "mid-run-key"
	owner, other := byName(c, b0, b1, c.Ring().Owner(key))
	owner.setHold(true) // job runs "forever" on the owner

	j := mustSubmit(t, c, key, 2)
	// Wait until the job is actually running on the owner.
	deadline := time.Now().Add(5 * time.Second)
	for len(owner.seeds()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never reached the owner")
		}
		time.Sleep(time.Millisecond)
	}
	owner.srv.CloseClientConnections()
	owner.srv.Close()

	snap := waitDone(t, j)
	if snap.State != jobreg.StateDone {
		t.Fatalf("state %s, err %q", snap.State, snap.Err)
	}
	if snap.Resubmits < 1 {
		t.Errorf("resubmits = %d, want >= 1", snap.Resubmits)
	}
	if len(other.seeds()) != 1 {
		t.Errorf("survivor got %d submissions, want 1", len(other.seeds()))
	}
}

// The owner is alive but loses the job it holds (a restart wiped its
// registry): the first poll answers 404, which asking again cannot
// heal, so the job fails over at once and completes on the ring
// successor.
func TestCoordinatorFailoverOnLostJob(t *testing.T) {
	c, b0, b1 := testCluster(t, Config{})
	key := "lost-job-key"
	owner, other := byName(c, b0, b1, c.Ring().Owner(key))
	owner.setHold(true)

	j := mustSubmit(t, c, key, 10)
	deadline := time.Now().Add(5 * time.Second)
	for j.Snapshot().BackendJob == "" {
		if time.Now().After(deadline) {
			t.Fatal("job never reached the owner")
		}
		time.Sleep(time.Millisecond)
	}
	owner.forget()

	snap := waitDone(t, j)
	if snap.State != jobreg.StateDone {
		t.Fatalf("state %s, err %q", snap.State, snap.Err)
	}
	if want := c.Ring().Route(key)[1]; snap.Backend != want || snap.Resubmits != 1 {
		t.Errorf("ran on %s after %d resubmits, want %s after 1", snap.Backend, snap.Resubmits, want)
	}
	if len(other.seeds()) != 1 {
		t.Errorf("survivor got %d submissions, want 1", len(other.seeds()))
	}
	owner.mu.Lock()
	lost := owner.lostGets
	owner.mu.Unlock()
	if lost != 1 {
		t.Errorf("owner answered %d polls with 404 before failover, want 1", lost)
	}
}

// Every backend dead: the job fails after the bounded attempt budget
// instead of retrying forever.
func TestCoordinatorAllBackendsDead(t *testing.T) {
	c, b0, b1 := testCluster(t, Config{Attempts: 3})
	b0.srv.Close()
	b1.srv.Close()
	snap := waitDone(t, mustSubmit(t, c, "all-dead", 3))
	if snap.State != jobreg.StateFailed {
		t.Fatalf("state %s, want failed", snap.State)
	}
	if snap.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", snap.Attempts)
	}
	if got := c.Metrics().Counter("cluster.jobs_failed").Value(); got != 1 {
		t.Errorf("jobs_failed = %d", got)
	}
}

// A 400 is the request's fault, not the node's: no failover, the job
// fails on the first attempt.
func TestCoordinatorPermanentRejection(t *testing.T) {
	c, b0, b1 := testCluster(t, Config{})
	key := "bad-request-key"
	owner, other := byName(c, b0, b1, c.Ring().Owner(key))
	owner.mu.Lock()
	owner.rejectWith = http.StatusBadRequest
	owner.mu.Unlock()

	snap := waitDone(t, mustSubmit(t, c, key, 4))
	if snap.State != jobreg.StateFailed || snap.Attempts != 1 || snap.Resubmits != 0 {
		t.Fatalf("state=%s attempts=%d resubmits=%d, want failed/1/0", snap.State, snap.Attempts, snap.Resubmits)
	}
	if len(other.seeds()) != 0 {
		t.Errorf("a 400 must not fail over, but the other backend got %v", other.seeds())
	}
}

// A finished job releases its context, so the coordinator's root
// context does not keep one child per finished job until it exits.
func TestCoordinatorReleasesFinishedJobContext(t *testing.T) {
	c, b0, b1 := testCluster(t, Config{})
	done := mustSubmit(t, c, "release-done-key", 8)
	if snap := waitDone(t, done); snap.State != jobreg.StateDone {
		t.Fatalf("state %s, err %v", snap.State, snap.Err)
	}
	key := "release-failed-key"
	owner, _ := byName(c, b0, b1, c.Ring().Owner(key))
	owner.mu.Lock()
	owner.rejectWith = http.StatusBadRequest
	owner.mu.Unlock()
	failed := mustSubmit(t, c, key, 9)
	if snap := waitDone(t, failed); snap.State != jobreg.StateFailed {
		t.Fatalf("state %s, want failed", snap.State)
	}
	for _, j := range []*Job{done, failed} {
		if j.Context().Err() == nil {
			t.Errorf("finished job %s still holds a live context", j.ID())
		}
	}
}

// Backpressure (429) is node-level: the saturated node is skipped and
// the job runs on the ring successor.
func TestCoordinatorBackpressureFailsOver(t *testing.T) {
	c, b0, b1 := testCluster(t, Config{})
	key := "saturated-key"
	owner, other := byName(c, b0, b1, c.Ring().Owner(key))
	owner.mu.Lock()
	owner.rejectWith = http.StatusTooManyRequests
	owner.mu.Unlock()

	snap := waitDone(t, mustSubmit(t, c, key, 5))
	if snap.State != jobreg.StateDone {
		t.Fatalf("state %s, err %q", snap.State, snap.Err)
	}
	if len(other.seeds()) != 1 || snap.Resubmits < 1 {
		t.Errorf("survivor seeds %v, resubmits %d", other.seeds(), snap.Resubmits)
	}
}

func TestCoordinatorCancelPropagates(t *testing.T) {
	c, b0, b1 := testCluster(t, Config{})
	key := "cancel-key"
	owner, _ := byName(c, b0, b1, c.Ring().Owner(key))
	owner.setHold(true)

	j := mustSubmit(t, c, key, 6)
	// Wait until the coordinator knows the backend job ID — cancelling
	// earlier (mid-submit) legitimately cannot reach the backend copy.
	deadline := time.Now().Add(5 * time.Second)
	for j.Snapshot().BackendJob == "" {
		if time.Now().After(deadline) {
			t.Fatal("job never reached the owner")
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := c.Cancel(j.ID()); !ok {
		t.Fatal("cancel: unknown job")
	}
	snap := waitDone(t, j)
	if snap.State != jobreg.StateCancelled {
		t.Fatalf("state %s, want cancelled", snap.State)
	}
	// The backend's copy was cancelled too (best effort, but in-process
	// it always lands).
	deadline = time.Now().Add(5 * time.Second)
	for {
		owner.mu.Lock()
		n := len(owner.cancelled)
		owner.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("backend never saw the cancel")
		}
		time.Sleep(time.Millisecond)
	}
}

// The relay long-polls: a job the backend holds for 200 ms and then
// finishes costs one status GET, answered when the job finishes, not
// one GET per poll interval.
func TestCoordinatorRelayCostsOneGet(t *testing.T) {
	c, b0, b1 := testCluster(t, Config{})
	key := "relay-cost-key"
	owner, other := byName(c, b0, b1, c.Ring().Owner(key))
	owner.setHold(true)

	j := mustSubmit(t, c, key, 11)
	deadline := time.Now().Add(5 * time.Second)
	for len(owner.seeds()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never reached the owner")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	owner.release(11)

	snap := waitDone(t, j)
	if snap.State != jobreg.StateDone || snap.Attempts != 1 {
		t.Fatalf("state %s after %d attempts (err %v), want done after 1", snap.State, snap.Attempts, snap.Err)
	}
	if got := owner.getCount(); got != 1 {
		t.Errorf("the owner served %d status GETs for one 200 ms job, want 1", got)
	}
	if got := other.getCount(); got != 0 {
		t.Errorf("the other backend served %d status GETs, want 0", got)
	}
}

func mustSubmit(t *testing.T, c *Coordinator, key string, seed int64) *Job {
	t.Helper()
	j, err := c.Submit(key, seedBody(seed))
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// Journal recovery, the crash-consistency contract: accept N jobs,
// crash (abort without draining) with some unfinished, reboot onto the
// same journal — the replay resubmits exactly the unfinished set, and
// completed jobs are not re-run because their completion records are
// on disk.
func TestCoordinatorJournalRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	journal, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatal("fresh journal not empty")
	}
	c1, b0, b1 := testCluster(t, Config{Journal: journal})
	b0.setHold(true)
	b1.setHold(true)

	const n = 5
	jobs := make([]*Job, n)
	for i := 0; i < n; i++ {
		// Distinct keys spread the jobs across both backends.
		jobs[i] = mustSubmit(t, c1, fmt.Sprintf("recovery-key-%d", i), int64(i+1))
	}
	// Wait until every job is running on some backend.
	deadline := time.Now().Add(10 * time.Second)
	for len(b0.seeds())+len(b1.seeds()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs dispatched", len(b0.seeds())+len(b1.seeds()), n)
		}
		time.Sleep(time.Millisecond)
	}
	// Complete seeds 1 and 2; crash with 3..5 in flight.
	for _, seed := range []int64{1, 2} {
		b0.release(seed)
		b1.release(seed)
		waitDone(t, jobs[seed-1])
	}
	crashCtx, cancel := context.WithCancel(context.Background())
	cancel() // expired: Shutdown aborts instead of draining
	if err := c1.Shutdown(crashCtx); err == nil {
		t.Fatal("aborted shutdown reported a clean drain")
	}

	// The crashed-over jobs are non-terminal and unjournaled.
	journal2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	un := Unfinished(recs)
	if len(un) != 3 {
		t.Fatalf("unfinished after crash = %d (%+v), want 3", len(un), un)
	}
	wantUnfinished := map[string]bool{jobs[2].ID(): true, jobs[3].ID(): true, jobs[4].ID(): true}
	for _, r := range un {
		if !wantUnfinished[r.Job] {
			t.Fatalf("unexpected unfinished job %s", r.Job)
		}
	}

	// Reboot: fresh coordinator over the same (now releasing) backends.
	b0.setHold(false)
	b1.setHold(false)
	wipeSubmissions(b0)
	wipeSubmissions(b1)
	cfg := Config{
		Backends:       []Backend{{Name: "b0", URL: b0.srv.URL}, {Name: "b1", URL: b1.srv.URL}},
		ProbeInterval:  -1,
		RetryBaseDelay: time.Millisecond,
		Journal:        journal2,
		Metrics:        new(obs.Registry),
	}
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c2.Shutdown(ctx)
	}()
	if got := c2.Recover(recs); got != 3 {
		t.Fatalf("Recover resubmitted %d jobs, want 3", got)
	}
	for id := range wantUnfinished {
		j, ok := c2.Get(id)
		if !ok {
			t.Fatalf("replayed job %s not tracked", id)
		}
		if snap := waitDone(t, j); snap.State != jobreg.StateDone {
			t.Fatalf("replayed job %s ended %s: %s", id, snap.State, snap.Err)
		}
	}
	// Exactly the unfinished seeds were resubmitted — 1 and 2 have
	// completion records and must not re-run.
	resub := make(map[int64]int)
	for _, s := range append(b0.seeds(), b1.seeds()...) {
		resub[s]++
	}
	for seed := int64(1); seed <= 2; seed++ {
		if resub[seed] != 0 {
			t.Errorf("completed seed %d was re-run %d time(s)", seed, resub[seed])
		}
	}
	for seed := int64(3); seed <= 5; seed++ {
		if resub[seed] != 1 {
			t.Errorf("unfinished seed %d resubmitted %d time(s), want exactly 1", seed, resub[seed])
		}
	}
	// New IDs never collide with replayed ones.
	j, err := c2.Submit("post-recovery", seedBody(99))
	if err != nil {
		t.Fatal(err)
	}
	if _, taken := wantUnfinished[j.ID()]; taken || j.ID() == jobs[0].ID() || j.ID() == jobs[1].ID() {
		t.Fatalf("post-recovery job reused ID %s", j.ID())
	}
	waitDone(t, j)

	// After the recovered run, nothing is left unfinished on disk.
	_ = c2.Shutdown(context.Background())
	_, recs, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if un := Unfinished(recs); len(un) != 0 {
		t.Fatalf("journal still lists %d unfinished after recovery: %+v", len(un), un)
	}
}

func wipeSubmissions(f *fakeBackend) {
	f.mu.Lock()
	f.submissions = nil
	f.mu.Unlock()
}

// Status and GatherMetrics aggregate per-backend views and survive a
// dead node.
func TestCoordinatorAggregation(t *testing.T) {
	c, _, b1 := testCluster(t, Config{})
	b1.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	sts := c.Status(ctx)
	if len(sts) != 2 {
		t.Fatalf("%d statuses", len(sts))
	}
	ready := 0
	for _, st := range sts {
		if st.Ready {
			ready++
		}
	}
	if ready != 1 {
		t.Errorf("ready = %d, want 1 (b1 is down)", ready)
	}
	ms := c.GatherMetrics(ctx)
	if len(ms) != 2 {
		t.Fatalf("%d metrics entries", len(ms))
	}
	if ms["b0"] == nil {
		t.Error("live backend's metrics missing")
	}
	if ms["b1"] != nil {
		t.Error("dead backend should map to null metrics")
	}
}
