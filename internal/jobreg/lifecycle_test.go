package jobreg

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFinishTerminalWins races many Finish calls, with different
// states, errors and payloads, on one job. Run it under -race: exactly
// one call wins, and the job carries the winner's outcome and nothing
// of any loser's.
func TestFinishTerminalWins(t *testing.T) {
	states := []State{StateDone, StateFailed, StateCancelled}
	const callers = 32
	for round := 0; round < 20; round++ {
		l := NewLifecycle(context.Background(), "job-1", time.Hour)
		if round%2 == 0 && !l.Start() {
			t.Fatal("Start refused a fresh queued job")
		}
		var (
			payload           string // guarded by l's lock
			wins, payloads    atomic.Int64
			settles, winnerID atomic.Int64
			start             = make(chan struct{})
			wg                sync.WaitGroup
		)
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				name := fmt.Sprintf("caller-%d", i)
				won := l.Finish(states[i%len(states)], errors.New(name),
					func() { payload = name; payloads.Add(1) },
					func() { settles.Add(1) })
				if won {
					wins.Add(1)
					winnerID.Store(int64(i))
				}
			}(i)
		}
		close(start)
		wg.Wait()

		if wins.Load() != 1 || payloads.Load() != 1 || settles.Load() != 1 {
			t.Fatalf("round %d: %d wins, %d payloads, %d settles; want 1 each",
				round, wins.Load(), payloads.Load(), settles.Load())
		}
		select {
		case <-l.Done():
		default:
			t.Fatalf("round %d: Done still open after Finish", round)
		}
		w := int(winnerID.Load())
		want := fmt.Sprintf("caller-%d", w)
		var gotPayload string
		s := l.Status(func() { gotPayload = payload })
		if s.State != states[w%len(states)] || s.Err == nil || s.Err.Error() != want || gotPayload != want {
			t.Fatalf("round %d: state %s err %v payload %q; want the winner's (%s, %s)",
				round, s.State, s.Err, gotPayload, states[w%len(states)], want)
		}
		if s.Finished.IsZero() || s.Finished.Before(s.Submitted) {
			t.Fatalf("round %d: finished %v, submitted %v", round, s.Finished, s.Submitted)
		}
		if l.Context().Err() == nil {
			t.Fatalf("round %d: a terminal job's context is still live", round)
		}
		if l.Start() {
			t.Fatalf("round %d: Start moved a terminal job", round)
		}
		if l.Finish(StateDone, nil, func() { t.Error("a late loser's payload ran") }, func() { t.Error("a late loser's settle ran") }) {
			t.Fatalf("round %d: a late Finish won", round)
		}
	}
}

// Start refuses a job cancelled (or past its deadline) while queued;
// the job stays queued for its owner to finish.
func TestStartAfterCancel(t *testing.T) {
	cause := errors.New("cancelled while queued")
	l := NewLifecycle(context.Background(), "job-2", 0)
	l.Cancel(cause)
	if l.Start() {
		t.Fatal("Start moved a cancelled job")
	}
	if s := l.Status(nil); s.State != StateQueued || !s.Started.IsZero() {
		t.Fatalf("cancelled job is %s (started %v), want still queued", s.State, s.Started)
	}
	if got := context.Cause(l.Context()); !errors.Is(got, cause) {
		t.Fatalf("cause %v, want %v", got, cause)
	}

	late := NewLifecycle(context.Background(), "job-3", time.Nanosecond)
	<-late.Context().Done()
	if late.Start() {
		t.Fatal("Start moved a job past its deadline")
	}
	if got := context.Cause(late.Context()); !errors.Is(got, context.DeadlineExceeded) {
		t.Fatalf("deadline cause %v", got)
	}
}

// A job's context derives from its parent, and Finish releases it
// without disturbing the parent.
func TestLifecycleContextFromParent(t *testing.T) {
	parent, abort := context.WithCancelCause(context.Background())
	defer abort(nil)
	l := NewLifecycle(parent, "cjob-1", 0)
	if !l.Start() {
		t.Fatal("Start refused a fresh job")
	}
	l.Update(func() {}) // owner fields change under the lock
	if l.ID() != "cjob-1" || l.Status(nil).State != StateRunning {
		t.Fatalf("job %s is %s, want cjob-1 running", l.ID(), l.Status(nil).State)
	}
	if !l.Finish(StateDone, nil, nil, nil) {
		t.Fatal("first Finish lost")
	}
	if l.Context().Err() == nil || parent.Err() != nil {
		t.Fatalf("job ctx %v, parent ctx %v; want released job, live parent", l.Context().Err(), parent.Err())
	}

	aborted := NewLifecycle(parent, "cjob-2", 0)
	abort(errors.New("coordinator aborted"))
	if aborted.Start() {
		t.Fatal("Start moved a job whose parent was cancelled")
	}
}

func TestFinishRejectsNonTerminalState(t *testing.T) {
	l := NewLifecycle(context.Background(), "job-4", 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Finish accepted a non-terminal state")
		}
		if l.Status(nil).State != StateQueued {
			t.Fatal("the rejected Finish changed the state")
		}
	}()
	l.Finish(StateRunning, nil, nil, nil)
}
