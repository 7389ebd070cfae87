package service

// Health degrades at this queue occupancy, and after this many
// consecutive panicking solves.
const (
	degradedQueueFrac   = 0.8
	degradedPanicStreak = 3
)

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
// degradedQueueFrac of capacity (backpressure is imminent) or when
// degradedPanicStreak consecutive solves have panicked (something is
// systematically wrong, stop routing work here). Both conditions
// self-heal: draining the queue or one clean solve restores readiness.
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
	if frac := float64(h.QueueDepth) / float64(h.QueueCap); frac >= degradedQueueFrac {
		h.Reasons = append(h.Reasons, "queue occupancy high")
	}
	if streak >= degradedPanicStreak {
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
