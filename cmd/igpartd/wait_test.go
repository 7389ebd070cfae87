package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"igpart/internal/cluster"
	"igpart/internal/fault"
	"igpart/internal/jobreg"
	"igpart/internal/service"
)

// heldEngine returns a one-worker engine that holds the first job it
// runs: that job's solve stalls (worker.stall, once) until the job is
// cancelled, so it stays running and every later job queues behind
// it. The injector reports when the stall has fired.
func heldEngine(t *testing.T) (*service.Engine, *fault.Injector) {
	t.Helper()
	inj, err := fault.New(1, nil, fault.Rule{Point: fault.WorkerStall, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	engine := service.New(service.Config{Workers: 1, Fault: inj})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = engine.Shutdown(ctx)
	})
	return engine, inj
}

// waitRole is one job-taking role under the wait tests: its handler,
// a job held running until release cancels it, and a job queued
// behind the held one, which runs to done once the worker is free.
type waitRole struct {
	handler http.Handler
	held    string
	queued  string
	release func()
}

// newWaitRole serves role ("engine" or "coordinator") over a held
// engine. The coordinator's jobs run on that engine as its one
// backend.
func newWaitRole(t *testing.T, role string) waitRole {
	t.Helper()
	engine, inj := heldEngine(t)
	ets := httptest.NewServer(newServer(engine, serverConfig{}))
	t.Cleanup(ets.Close)
	ts := ets
	if role == "coordinator" {
		b := &clusterBackend{name: "b0", engine: engine, reg: engine.Metrics(), ts: ets}
		ts, _ = testCoordinator(t, "", -1, b)
	}
	submit := func(seed int) string {
		body, _ := bookshelfPayload(t, "bm1", 0.2, map[string]any{"seed": seed})
		got := wireDo(t, ts.URL, http.MethodPost, "/v1/jobs", body)
		var j struct{ ID string }
		decodeWire(t, got, &j)
		if got.status != http.StatusAccepted || j.ID == "" {
			t.Fatalf("submit = %d (%s)", got.status, got.body)
		}
		return j.ID
	}
	r := waitRole{handler: ts.Config.Handler, held: submit(1)}
	// Queue the second job only once the first holds the worker.
	deadline := time.Now().Add(10 * time.Second)
	for inj.Fires(fault.WorkerStall) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the held job never ran")
		}
		time.Sleep(time.Millisecond)
	}
	r.queued = submit(2)
	r.release = func() {
		if got := wireDo(t, ts.URL, http.MethodDelete, "/v1/jobs/"+r.held, nil); got.status != http.StatusOK {
			t.Fatalf("DELETE held job = %d (%s)", got.status, got.body)
		}
	}
	return r
}

// waitAnswer is one answered job GET.
type waitAnswer struct {
	status int
	state  string
	took   time.Duration
	err    error
}

// getWait GETs base/v1/jobs/id?wait=wait. It reports failures in the
// answer rather than failing the test, so goroutines may call it.
func getWait(base, id, wait string) waitAnswer {
	start := time.Now()
	resp, err := http.Get(base + "/v1/jobs/" + id + "?wait=" + wait)
	if err != nil {
		return waitAnswer{err: err}
	}
	defer resp.Body.Close()
	var j struct{ State string }
	err = json.NewDecoder(resp.Body).Decode(&j)
	return waitAnswer{status: resp.StatusCode, state: j.State, took: time.Since(start), err: err}
}

// want fails the test unless the answer is status with state (any
// state when state is empty).
func (a waitAnswer) want(t *testing.T, status int, state jobreg.State) {
	t.Helper()
	if a.err != nil {
		t.Fatalf("GET: %v", a.err)
	}
	if a.status != status || (state != "" && a.state != string(state)) {
		t.Fatalf("GET = %d %q, want %d %q", a.status, a.state, status, state)
	}
}

// TestJobWait pins GET /v1/jobs/{id}?wait= on the engine and the
// coordinator: it answers at once for a terminal job, a bad wait or an
// unknown ID; it holds the answer of a running or queued job until the
// job finishes, the wait runs out or the server shuts down; and a
// server write timeout shorter than the wait does not cut the answer
// off.
func TestJobWait(t *testing.T) {
	for _, role := range []string{"engine", "coordinator"} {
		t.Run(role, func(t *testing.T) {
			r := newWaitRole(t, role)
			ts := httptest.NewServer(r.handler)
			t.Cleanup(ts.Close)

			for _, bad := range []string{"abc", "-1s"} {
				getWait(ts.URL, r.held, bad).want(t, http.StatusBadRequest, "")
			}

			unknown := getWait(ts.URL, "nope-999", "30s")
			unknown.want(t, http.StatusNotFound, "")
			if unknown.took > 5*time.Second {
				t.Fatalf("unknown job answered after %v, want at once", unknown.took)
			}

			out := getWait(ts.URL, r.held, "50ms")
			out.want(t, http.StatusOK, jobreg.StateRunning)
			if out.took < 50*time.Millisecond {
				t.Fatalf("a 50ms wait on a running job answered after %v", out.took)
			}

			// The server's write deadline would pass during the wait.
			short := httptest.NewUnstartedServer(r.handler)
			short.Config.WriteTimeout = 20 * time.Millisecond
			short.Start()
			t.Cleanup(short.Close)
			getWait(short.URL, r.held, "200ms").want(t, http.StatusOK, jobreg.StateRunning)

			// Shutdown ends a pending wait at once, so it does not hold the
			// drain.
			srv := newHTTPServer(r.handler, 0, 0)
			active := make(chan struct{}, 1)
			srv.ConnState = func(_ net.Conn, s http.ConnState) {
				if s == http.StateActive {
					select {
					case active <- struct{}{}:
					default:
					}
				}
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
			pending := make(chan waitAnswer, 1)
			go func() { pending <- getWait("http://"+ln.Addr().String(), r.held, "30s") }()
			<-active
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			start := time.Now()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatalf("shutdown with a wait pending: %v", err)
			}
			if took := time.Since(start); took > 5*time.Second {
				t.Fatalf("shutdown with a wait pending took %v", took)
			}
			(<-pending).want(t, http.StatusOK, jobreg.StateRunning)

			// A queued job's answer waits for the job to finish.
			queued := make(chan waitAnswer, 1)
			go func() { queued <- getWait(ts.URL, r.queued, "30s") }()
			select {
			case a := <-queued:
				t.Fatalf("queued job answered %d %q before it could finish", a.status, a.state)
			case <-time.After(100 * time.Millisecond):
			}
			r.release()
			(<-queued).want(t, http.StatusOK, jobreg.StateDone)

			done := getWait(ts.URL, r.queued, "30s")
			done.want(t, http.StatusOK, jobreg.StateDone)
			if done.took > 5*time.Second {
				t.Fatalf("a done job answered after %v, want at once", done.took)
			}
		})
	}
}

// A standby takes no work: a job GET with a wait gets its 503 at once.
func TestStandbyIgnoresWait(t *testing.T) {
	stb := cluster.NewStandby(cluster.StandbyConfig{
		Path:  filepath.Join(t.TempDir(), "journal.jsonl"),
		Owner: "wait-standby",
	})
	ts := httptest.NewServer(newStandbyServer(stb))
	t.Cleanup(ts.Close)
	got := getWait(ts.URL, "cjob-1", "30s")
	got.want(t, http.StatusServiceUnavailable, "")
	if got.took > 5*time.Second {
		t.Fatalf("standby answered after %v, want at once", got.took)
	}
}
