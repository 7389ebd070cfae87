package jobreg

import (
	"context"
	"sync"
	"time"
)

// State is a job's lifecycle phase.
type State string

// The job lifecycle. Queued and Running are transient; the other three
// are terminal and frozen once reached.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Status is the lifecycle half of a job snapshot. Each owner's snapshot
// type embeds it next to the owner's payload.
type Status struct {
	ID        string
	State     State
	Err       error
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
}

// Lifecycle is one job's state machine: queued → running →
// done/failed/cancelled. The engine's and the coordinator's job types
// embed it and keep their payload fields under its lock, touching them
// only inside the functions they pass to Update, Finish and Status.
// Those functions run with the lock held, so they only copy fields:
// they must not block or call back into the Lifecycle.
type Lifecycle struct {
	ctx    context.Context
	cancel context.CancelCauseFunc
	stop   context.CancelFunc // the deadline timer; a no-op without one
	done   chan struct{}

	mu sync.Mutex
	st Status // st.ID never changes
}

// NewLifecycle returns a queued job named id whose context derives from
// parent. A positive timeout adds a deadline counted from now, so time
// spent queued counts against it.
func NewLifecycle(parent context.Context, id string, timeout time.Duration) *Lifecycle {
	ctx, cancel := context.WithCancelCause(parent)
	l := &Lifecycle{
		ctx:    ctx,
		cancel: cancel,
		stop:   func() {},
		done:   make(chan struct{}),
		st:     Status{ID: id, State: StateQueued, Submitted: time.Now()},
	}
	if timeout > 0 {
		l.ctx, l.stop = context.WithTimeout(ctx, timeout)
	}
	return l
}

// ID returns the job's identifier.
func (l *Lifecycle) ID() string { return l.st.ID }

// Context is the job's context. It fires on Cancel, at the deadline or
// with the parent, and Finish releases it.
func (l *Lifecycle) Context() context.Context { return l.ctx }

// Done is closed when the job reaches a terminal state.
func (l *Lifecycle) Done() <-chan struct{} { return l.done }

// Cancel cancels the job's context with cause. The owner notices and
// finishes the job.
func (l *Lifecycle) Cancel(cause error) { l.cancel(cause) }

// Start moves the job from queued to running and reports whether it
// did. A job whose context fired while it was queued, or one already
// terminal, stays where it is.
func (l *Lifecycle) Start() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.st.State != StateQueued || l.ctx.Err() != nil {
		return false
	}
	l.st.State = StateRunning
	l.st.Started = time.Now()
	return true
}

// Update runs fn under the job's lock, for payload fields that change
// while the job runs.
func (l *Lifecycle) Update(fn func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fn()
}

// Finish moves the job to state, which must be terminal, and reports
// whether this call did it. The first call wins: under the job's lock
// it sets state and err and runs payload, which records the owner's
// outcome; it then releases the job's context, runs settle, closes Done
// and reports true. Later calls run neither function and report false,
// which makes completion/cancellation races safe. Either function may
// be nil.
func (l *Lifecycle) Finish(state State, err error, payload, settle func()) bool {
	if !state.Terminal() {
		panic("jobreg: Finish with non-terminal state " + string(state))
	}
	l.mu.Lock()
	if l.st.State.Terminal() {
		l.mu.Unlock()
		return false
	}
	l.st.State, l.st.Err, l.st.Finished = state, err, time.Now()
	if payload != nil {
		payload()
	}
	l.mu.Unlock()
	l.stop()
	l.cancel(nil)
	if settle != nil {
		settle()
	}
	close(l.done)
	return true
}

// Status returns the lifecycle fields. view, when not nil, runs under
// the same lock, so the owner copies its payload consistently with them.
func (l *Lifecycle) Status(view func()) Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	if view != nil {
		view()
	}
	return l.st
}
