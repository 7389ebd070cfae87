package service

import (
	"context"
	"time"

	"igpart/internal/fault"
)

// clock is the engine's time source, a seam so retry/backoff schedules
// are testable with a fake clock instead of wall-time sleeps.
type clock interface {
	Now() time.Time
	// Sleep blocks for d or until ctx fires, returning ctx's error in
	// the latter case — which is what makes backoff deadline-aware: a
	// job whose deadline lands mid-backoff stops waiting immediately.
	Sleep(ctx context.Context, d time.Duration) error
}

// realClock is the production clock.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// splitmix64 and backoffDelay live in internal/fault now, shared with
// the cluster coordinator's failover resubmission; these aliases keep
// the engine's call sites (and the schedule tests) unchanged.
func splitmix64(x uint64) uint64 { return fault.Splitmix64(x) }

func backoffDelay(attempt int, base, max time.Duration, seed uint64) time.Duration {
	return fault.BackoffDelay(attempt, base, max, seed)
}

// Health is the engine's self-assessment, split the way an orchestrator
// wants it: liveness (the engine exists and can answer) versus
// readiness (it is sensible to send it more work right now).
type Health struct {
	// Live is true as long as the engine has not been shut down.
	Live bool `json:"-"`
	// Ready is true when the engine accepts work and is not degraded.
	Ready bool `json:"-"`
	// Status is "ok", "degraded", or "shutdown".
	Status string `json:"status"`
	// Reasons lists what degraded the engine, empty when Status == "ok".
	Reasons []string `json:"reasons,omitempty"`
	// QueueDepth and QueueCap describe current backlog.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// PanicStreak is the current run of consecutive solves that panicked.
	PanicStreak int `json:"panic_streak,omitempty"`
}

// Health reports liveness and readiness. The engine degrades — Ready
// false, Status "degraded" — when the queue occupancy reaches
// Config.DegradedQueueFrac of capacity (backpressure is imminent) or
// when Config.DegradedPanicStreak consecutive solves have panicked
// (something is systematically wrong, stop routing work here). Both
// conditions self-heal: draining the queue or one clean solve restores
// readiness.
func (e *Engine) Health() Health {
	e.mu.Lock()
	closed := e.closed
	streak := e.panicStreak
	e.mu.Unlock()
	h := Health{
		Live:        !closed,
		QueueDepth:  len(e.queue),
		QueueCap:    cap(e.queue),
		PanicStreak: streak,
	}
	if closed {
		h.Status = "shutdown"
		h.Reasons = append(h.Reasons, "engine shut down")
		return h
	}
	if frac := float64(h.QueueDepth) / float64(h.QueueCap); frac >= e.cfg.DegradedQueueFrac {
		h.Reasons = append(h.Reasons, "queue occupancy high")
	}
	if streak >= e.cfg.DegradedPanicStreak {
		h.Reasons = append(h.Reasons, "consecutive solve panics")
	}
	if len(h.Reasons) > 0 {
		h.Status = "degraded"
		return h
	}
	h.Ready = true
	h.Status = "ok"
	return h
}
