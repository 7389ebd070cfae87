package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"igpart"
	"igpart/internal/fault"
	"igpart/internal/jobreg"
)

// mustInjector builds an injector from rules, failing the test on a bad
// spec.
func mustInjector(t *testing.T, seed int64, rules ...fault.Rule) *fault.Injector {
	t.Helper()
	in, err := fault.New(seed, nil, rules...)
	if err != nil {
		t.Fatalf("fault.New: %v", err)
	}
	return in
}

// TestChaosWorkerPanicSurvives100 is the headline panic-isolation test:
// with worker.panic armed for exactly 100 fires, the engine must absorb
// 100 consecutive panicking jobs — every one terminal in jobreg.StateFailed
// with a structured PanicError carrying a stack — and then complete a
// clean job, with panics_recovered matching the injection count and the
// degraded-health streak resetting.
func TestChaosWorkerPanicSurvives100(t *testing.T) {
	const n = 100
	h := genNetlist(t, 60, 70, 1)
	inj := mustInjector(t, 42, fault.Rule{Point: fault.WorkerPanic, Limit: n})
	e := New(Config{Workers: 2, QueueDepth: n + 4, Fault: inj})
	defer shutdownNow(t, e)

	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		j, err := e.Submit(Request{Netlist: h, Options: Options{Seed: int64(i)}})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	for i, j := range jobs {
		s := j.Wait(context.Background())
		if s.State != jobreg.StateFailed {
			t.Fatalf("job %d: state=%s err=%v, want failed", i, s.State, s.Err)
		}
		pe, ok := fault.AsPanic(s.Err)
		if !ok {
			t.Fatalf("job %d: err=%v, want PanicError", i, s.Err)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("job %d: panic stack not captured", i)
		}
	}
	snap := e.Metrics().Snapshot()
	if got := snap.Counters["service.panics_recovered"]; got != n {
		t.Fatalf("panics_recovered = %d, want %d", got, n)
	}
	if got := inj.Fires(fault.WorkerPanic); got != n {
		t.Fatalf("worker.panic fired %d times, want %d", got, n)
	}
	if hl := e.Health(); hl.Ready || hl.Status != "degraded" {
		t.Fatalf("after %d straight panics Health = %+v, want degraded", n, hl)
	}

	// The injection budget is spent: the next job runs clean, and one
	// clean solve restores readiness.
	j, err := e.Submit(Request{Netlist: h, Options: Options{Seed: 7777}})
	if err != nil {
		t.Fatalf("post-chaos submit: %v", err)
	}
	if s := j.Wait(context.Background()); s.State != jobreg.StateDone {
		t.Fatalf("post-chaos job: state=%s err=%v, want done", s.State, s.Err)
	}
	if hl := e.Health(); !hl.Ready || hl.PanicStreak != 0 {
		t.Fatalf("after clean solve Health = %+v, want ready", hl)
	}
}

// TestChaosEigenNoConvergeSameCut pins the acceptance criterion for the
// eigen fallback chain end to end: with eigen.noconverge always firing,
// a job on a circuit within the dense-fallback cutoff must converge via
// the Jacobi rescue to the same ratio cut as a clean run. The portfolio
// case holds the race's contenders to the same: the engine's injector
// reaches their eigensolves.
func TestChaosEigenNoConvergeSameCut(t *testing.T) {
	h := genNetlist(t, 150, 180, 9) // 180 nets ≤ default cutoff 512
	cleanRun := map[string]func() (igpart.Metrics, error){
		AlgoIGMatch: func() (igpart.Metrics, error) {
			r, err := igpart.IGMatch(h)
			return r.Metrics, err
		},
		AlgoPortfolio: func() (igpart.Metrics, error) {
			r, err := igpart.Portfolio(h)
			return r.Metrics, err
		},
	}
	for _, algo := range []string{AlgoIGMatch, AlgoPortfolio} {
		t.Run(algo, func(t *testing.T) {
			inj := mustInjector(t, 5, fault.Rule{Point: fault.EigenNoConverge})
			e := New(Config{Workers: 1, Fault: inj})
			defer shutdownNow(t, e)

			j, err := e.Submit(Request{Netlist: h, Options: Options{Algo: algo}})
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			s := j.Wait(context.Background())
			if s.State != jobreg.StateDone {
				t.Fatalf("state=%s err=%v, want done via Jacobi fallback", s.State, s.Err)
			}
			if inj.Fires(fault.EigenNoConverge) == 0 {
				t.Fatal("eigen.noconverge never fired")
			}
			clean, err := cleanRun[algo]()
			if err != nil {
				t.Fatal(err)
			}
			if s.Result.Metrics.RatioCut != clean.RatioCut {
				t.Fatalf("fallback ratio cut %v != clean %v",
					s.Result.Metrics.RatioCut, clean.RatioCut)
			}
		})
	}
}

// TestChaosLatencyFaultsPreserveResults pins the parity property for
// the latency-and-capacity fault points: slow shards and cache evict
// storms may only cost time and hit rate, never change a result.
func TestChaosLatencyFaultsPreserveResults(t *testing.T) {
	h := genNetlist(t, 120, 140, 4)
	inj := mustInjector(t, 11,
		fault.Rule{Point: fault.SweepSlowShard},
		fault.Rule{Point: fault.CacheEvictStorm},
	)
	e := New(Config{Workers: 1, Fault: inj})
	defer shutdownNow(t, e)

	clean, err := igpart.IGMatch(h, igpart.IGMatchOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		j, err := e.Submit(Request{Netlist: h, Options: Options{Parallelism: 4}})
		if err != nil {
			t.Fatalf("round %d submit: %v", round, err)
		}
		s := j.Wait(context.Background())
		if s.State != jobreg.StateDone {
			t.Fatalf("round %d: state=%s err=%v", round, s.State, s.Err)
		}
		if s.Result.Metrics != clean.Metrics {
			t.Fatalf("round %d: metrics %+v != clean %+v", round, s.Result.Metrics, clean.Metrics)
		}
		if s.Cached {
			t.Fatalf("round %d: cache hit despite evict storm on every store", round)
		}
	}
	if inj.Fires(fault.SweepSlowShard) == 0 || inj.Fires(fault.CacheEvictStorm) == 0 {
		t.Fatalf("latency faults never fired: %s", inj)
	}
	if got := e.Metrics().Snapshot().Counters["service.cache_evictions"]; got == 0 {
		t.Fatal("evict storm recorded no evictions")
	}
}

// TestChaosMixedFaultSweep runs a stream of jobs under several armed
// points at once. The invariants: the engine never crashes, every job
// reaches a terminal state, and the only failures are structured panic
// errors — eigen non-convergence is absorbed by the fallback chain.
func TestChaosMixedFaultSweep(t *testing.T) {
	h := genNetlist(t, 90, 110, 6)
	inj := mustInjector(t, 99,
		fault.Rule{Point: fault.WorkerPanic, Every: 3},
		fault.Rule{Point: fault.EigenNoConverge, Every: 2},
		fault.Rule{Point: fault.CacheEvictStorm},
	)
	e := New(Config{Workers: 2, QueueDepth: 32, Fault: inj})
	defer shutdownNow(t, e)

	const n = 24
	var failed, done int
	for i := 0; i < n; i++ {
		j, err := e.Submit(Request{Netlist: h, Options: Options{Seed: int64(i)}})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		s := j.Wait(context.Background())
		switch s.State {
		case jobreg.StateDone:
			done++
		case jobreg.StateFailed:
			if _, ok := fault.AsPanic(s.Err); !ok {
				t.Fatalf("job %d failed with non-panic error: %v", i, s.Err)
			}
			failed++
		default:
			t.Fatalf("job %d: unexpected terminal state %s", i, s.State)
		}
	}
	if done == 0 || failed == 0 {
		t.Fatalf("mixed sweep not mixed: %d done, %d failed", done, failed)
	}
	snap := e.Metrics().Snapshot()
	if snap.Counters["service.panics_recovered"] != int64(failed) {
		t.Fatalf("panics_recovered = %d, failed jobs = %d",
			snap.Counters["service.panics_recovered"], failed)
	}
}

// TestShutdownRacingCancel drives Shutdown and Cancel at the same
// moment, repeatedly: exactly one terminal transition must win, the
// outcome counters must agree with the terminal state, and nothing may
// trip the race detector.
func TestShutdownRacingCancel(t *testing.T) {
	h := genNetlist(t, 20, 24, 3)
	for round := 0; round < 8; round++ {
		e, release := blockingEngine(Config{Workers: 1})
		j, err := e.Submit(Request{Netlist: h})
		if err != nil {
			t.Fatalf("round %d submit: %v", round, err)
		}
		waitState(t, j, jobreg.StateRunning, 5*time.Second)

		start := make(chan struct{})
		errc := make(chan error, 1)
		go func() {
			<-start
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			e.Shutdown(ctx)
			errc <- nil
		}()
		go func() {
			<-start
			e.Cancel(j.ID())
		}()
		close(start)
		<-errc
		close(release)

		s := j.Wait(context.Background())
		if s.State != jobreg.StateCancelled {
			t.Fatalf("round %d: state=%s err=%v, want cancelled", round, s.State, s.Err)
		}
		if !errors.Is(s.Err, ErrCancelled) && !errors.Is(s.Err, ErrShutdown) {
			t.Fatalf("round %d: cancel cause %v, want ErrCancelled or ErrShutdown", round, s.Err)
		}
		if got := e.Metrics().Snapshot().Counters["service.jobs_cancelled"]; got != 1 {
			t.Fatalf("round %d: jobs_cancelled = %d, want exactly 1 (terminal state wins once)", round, got)
		}
	}
}
