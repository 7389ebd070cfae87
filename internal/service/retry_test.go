package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"igpart"
	"igpart/internal/jobreg"
)

// fakeClock records Sleep calls instead of waiting, so backoff
// schedules are asserted without wall time. An optional onSleep hook
// lets a test fire the job context mid-backoff.
type fakeClock struct {
	mu      sync.Mutex
	sleeps  []time.Duration
	onSleep func(ctx context.Context, d time.Duration) error
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	c.sleeps = append(c.sleeps, d)
	hook := c.onSleep
	c.mu.Unlock()
	if hook != nil {
		return hook(ctx, d)
	}
	return ctx.Err()
}

func (c *fakeClock) slept() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.sleeps...)
}

// failNTimesEngine returns an engine whose solver fails the first n
// attempts and then succeeds.
func failNTimesEngine(cfg Config, n int) (*Engine, *fakeClock) {
	e := New(cfg)
	clk := &fakeClock{}
	e.clock = clk
	attempts := 0
	e.solveFn = func(ctx context.Context, req Request, o Options) (*Result, error) {
		attempts++
		if attempts <= n {
			return nil, errors.New("transient solver failure")
		}
		return &Result{Algo: o.Algo, Sides: []igpart.Side{igpart.U, igpart.W}}, nil
	}
	return e, clk
}

func TestRetryScheduleWithFakeClock(t *testing.T) {
	base, max := 100*time.Millisecond, 2*time.Second
	e, clk := failNTimesEngine(Config{
		Workers: 1, RetryAttempts: 4,
		RetryBaseDelay: base, RetryMaxDelay: max,
	}, 2)
	defer shutdownNow(t, e)

	h := genNetlist(t, 20, 24, 3)
	j, err := e.Submit(Request{Netlist: h})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if s := j.Wait(context.Background()); s.State != jobreg.StateDone {
		t.Fatalf("state=%s err=%v, want done on attempt 3", s.State, s.Err)
	}
	sleeps := clk.slept()
	if len(sleeps) != 2 {
		t.Fatalf("slept %d times, want 2 (two failed attempts)", len(sleeps))
	}
	// Jittered exponential: attempt n waits in [cap/2, cap) of base·2^(n−1).
	for i, want := range []time.Duration{base, 2 * base} {
		if sleeps[i] < want/2 || sleeps[i] >= want {
			t.Fatalf("sleep %d = %v, want in [%v, %v)", i, sleeps[i], want/2, want)
		}
	}
	if got := e.Metrics().Snapshot().Counters["service.retries"]; got != 2 {
		t.Fatalf("service.retries = %d, want 2", got)
	}
}

func TestRetryExhaustionFailsJob(t *testing.T) {
	e, clk := failNTimesEngine(Config{Workers: 1, RetryAttempts: 3, RetryBaseDelay: time.Millisecond}, 99)
	defer shutdownNow(t, e)

	h := genNetlist(t, 20, 24, 3)
	j, _ := e.Submit(Request{Netlist: h})
	s := j.Wait(context.Background())
	if s.State != jobreg.StateFailed || s.Err == nil {
		t.Fatalf("state=%s err=%v, want failed with solver error", s.State, s.Err)
	}
	if got := len(clk.slept()); got != 2 {
		t.Fatalf("slept %d times, want 2 (attempts 1→2 and 2→3)", got)
	}
}

func TestRetryDisabled(t *testing.T) {
	e, clk := failNTimesEngine(Config{Workers: 1, RetryAttempts: -1}, 99)
	defer shutdownNow(t, e)

	h := genNetlist(t, 20, 24, 3)
	j, _ := e.Submit(Request{Netlist: h})
	if s := j.Wait(context.Background()); s.State != jobreg.StateFailed {
		t.Fatalf("state=%s, want failed on the only attempt", s.State)
	}
	if len(clk.slept()) != 0 {
		t.Fatal("retry-disabled engine backed off")
	}
}

// TestRetryDeadlineTruncatesBackoff pins deadline-awareness: when the
// job deadline lands inside the backoff wait, the engine gives up
// immediately and the job fails with the deadline cause.
func TestRetryDeadlineTruncatesBackoff(t *testing.T) {
	e, clk := failNTimesEngine(Config{
		Workers: 1, RetryAttempts: 3,
		RetryBaseDelay: time.Hour, RetryMaxDelay: time.Hour,
	}, 99)
	defer shutdownNow(t, e)
	clk.onSleep = func(ctx context.Context, d time.Duration) error {
		<-ctx.Done() // an hour-long backoff always outlives the deadline
		return ctx.Err()
	}

	h := genNetlist(t, 20, 24, 3)
	j, err := e.Submit(Request{Netlist: h, Options: Options{Timeout: 30 * time.Millisecond}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	s := j.Wait(context.Background())
	if s.State != jobreg.StateFailed || !errors.Is(s.Err, context.DeadlineExceeded) {
		t.Fatalf("state=%s err=%v, want failed/DeadlineExceeded from mid-backoff", s.State, s.Err)
	}
	if got := len(clk.slept()); got != 1 {
		t.Fatalf("slept %d times, want 1 — no further attempts after the deadline", got)
	}
}

func TestHealthDegradesOnQueueOccupancy(t *testing.T) {
	h := genNetlist(t, 20, 24, 3)
	e, release := blockingEngine(Config{Workers: 1, QueueDepth: 5})
	defer shutdownNow(t, e)

	if hl := e.Health(); !hl.Ready || !hl.Live || hl.Status != "ok" {
		t.Fatalf("idle engine Health = %+v, want live+ready", hl)
	}
	j1, _ := e.Submit(Request{Netlist: h})
	waitState(t, j1, jobreg.StateRunning, 5*time.Second)
	for i := 0; i < 4; i++ { // 4 queued of 5 reaches the 0.8 threshold
		if _, err := e.Submit(Request{Netlist: h}); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	hl := e.Health()
	if hl.Ready || hl.Status != "degraded" || !hl.Live {
		t.Fatalf("backlogged Health = %+v, want live but degraded", hl)
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for e.Health().QueueDepth > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if hl := e.Health(); !hl.Ready {
		t.Fatalf("drained Health = %+v, want readiness restored", hl)
	}
}

func TestHealthShutdownNotLive(t *testing.T) {
	e, _ := blockingEngine(Config{Workers: 1})
	shutdownNow(t, e)
	if hl := e.Health(); hl.Live || hl.Ready || hl.Status != "shutdown" {
		t.Fatalf("shut-down Health = %+v", hl)
	}
}
