package service

import (
	"testing"
	"time"

	"igpart/internal/jobreg"
)

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
