package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"igpart/internal/fault"
	"igpart/internal/jobreg"
	"igpart/internal/obs"
)

// coord.crash kills the coordinator at the worst possible instant —
// after the accept is journaled, before any backend sees the job. The
// submitter gets an error (never a silent loss), and the successor's
// replay completes the job under its original ID with exactly one
// completion record.
func TestCoordCrashChaos(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(1, nil, fault.Rule{Point: fault.CoordCrash, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := new(obs.Registry)
	c1, b0, b1 := testCluster(t, Config{Journal: j, Fault: inj, Metrics: reg})
	if _, err := c1.Submit("crash-key", seedBody(42)); !errors.Is(err, ErrShutdown) {
		t.Fatalf("crashed submit returned %v, want ErrShutdown", err)
	}
	if got := reg.Counter("cluster.coord.crashes").Value(); got != 1 {
		t.Fatalf("coord.crashes = %d, want 1", got)
	}
	// The crash deposed the coordinator for good — the spent fault must
	// not leave a half-alive leader accepting work.
	if _, err := c1.Submit("post-crash", seedBody(43)); !errors.Is(err, ErrShutdown) {
		t.Fatalf("deposed coordinator accepted a job (err = %v)", err)
	}
	if len(b0.seeds())+len(b1.seeds()) != 0 {
		t.Fatal("crashed job leaked to a backend before the crash point")
	}
	_ = c1.Shutdown(context.Background())

	// Successor: replay resurfaces the accepted-but-never-dispatched job.
	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	un := Unfinished(recs)
	if len(un) != 1 {
		t.Fatalf("unfinished after crash = %+v, want exactly the crashed accept", un)
	}
	id := un[0].Job
	c2, err := New(Config{
		Backends:       []Backend{{Name: "b0", URL: b0.srv.URL}, {Name: "b1", URL: b1.srv.URL}},
		ProbeInterval:  -1,
		RetryBaseDelay: time.Millisecond,
		Journal:        j2,
		Metrics:        new(obs.Registry),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Recover(recs); got != 1 {
		t.Fatalf("Recover resubmitted %d jobs, want 1", got)
	}
	job, ok := c2.Get(id)
	if !ok {
		t.Fatalf("replayed job %s not tracked under its original ID", id)
	}
	if snap := waitDone(t, job); snap.State != jobreg.StateDone {
		t.Fatalf("replayed job ended %s: %s", snap.State, snap.Err)
	}
	if err := c2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Exactly one completion record — a duplicate would mean the job ran
	// under two identities across the crash.
	j3, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j3.Close()
	dones := 0
	for _, r := range recs {
		if r.T == "done" && r.Job == id {
			dones++
		}
	}
	if un := Unfinished(recs); len(un) != 0 || dones > 1 {
		t.Fatalf("after recovery: %d unfinished, %d done records for %s", len(un), dones, id)
	}
	runs := 0
	for _, s := range append(b0.seeds(), b1.seeds()...) {
		if s == 42 {
			runs++
		}
	}
	if runs != 1 {
		t.Fatalf("crashed job ran %d times across backends, want exactly 1", runs)
	}
}

// Health probes are bounded per-probe and failures are counted: a
// backend that blackholes /readyz must cost one probe timeout, not a
// wedged prober.
func TestProbeTimeoutAndFailureCounter(t *testing.T) {
	stall := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stall // hold /readyz (and everything else) open
	}))
	defer slow.Close() // LIFO: runs after the stall is released,
	defer close(stall) // or Close would wait on the held handler forever

	cl := newClient(Backend{Name: "slow", URL: slow.URL})
	cl.probeTimeout = 30 * time.Millisecond
	start := time.Now()
	if cl.probe(context.Background()) {
		t.Fatal("probe of a stalled backend reported healthy")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("probe ran %v — the per-probe timeout did not bound it", elapsed)
	}

	reg := new(obs.Registry)
	c, err := New(Config{
		// An unroutable address: every probe fails fast.
		Backends:      []Backend{{Name: "dead", URL: "http://127.0.0.1:1"}},
		ProbeInterval: 2 * time.Millisecond,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("cluster.probe.failures").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("probe failures never counted")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A journal write failing part way through a batch refuses the whole
// batch: the journaled prefix is retracted (completion records as
// cancelled), no job is dispatched, and a successor's replay finds
// nothing to run.
func TestSubmitBatchAtomicOnJournalFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// The third append fails: jobs 1 and 2 are journaled, job 3 is not.
	inj, err := fault.New(1, nil, fault.Rule{Point: fault.JournalWriteErr, Every: 3, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	j.SetFault(inj)
	reg := new(obs.Registry)
	c, b0, b1 := testCluster(t, Config{Journal: j, Metrics: reg})
	keys := []string{"k1", "k2", "k3", "k4"}
	bodies := []json.RawMessage{seedBody(1), seedBody(2), seedBody(3), seedBody(4)}
	batch, err := c.SubmitBatch(keys, bodies)
	if !errors.Is(err, ErrJournal) || batch != nil {
		t.Fatalf("SubmitBatch = %v, %v; want nil, ErrJournal", batch, err)
	}
	for _, id := range []string{"cjob-2", "cjob-3", "cjob-4", "cjob-5"} {
		if _, ok := c.Get(id); ok {
			t.Fatalf("refused batch registered job %s", id)
		}
	}
	if got := reg.Counter("cluster.jobs_submitted").Value(); got != 0 {
		t.Fatalf("jobs_submitted = %d, want 0", got)
	}
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := len(b0.seeds()) + len(b1.seeds()); n != 0 {
		t.Fatalf("backends received %d job(s) of a refused batch", n)
	}

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if un := Unfinished(recs); len(un) != 0 {
		t.Fatalf("replay would run %+v from a refused batch", un)
	}
}
