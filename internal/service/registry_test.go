package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"igpart"
	"igpart/internal/jobreg"
)

// TestCancelResolvesOnceUnderPruning cancels jobs while other jobs
// finish, with the registry's retention bound lowered to 2 so pruning
// evicts finished jobs between any two lookups. Cancel must hand back
// the job it resolved, because a second lookup by ID can miss. Run it
// under -race.
func TestCancelResolvesOnceUnderPruning(t *testing.T) {
	h := genNetlist(t, 20, 24, 3)
	e := New(Config{Workers: 4, QueueDepth: 512, CacheEntries: -1})
	e.jobs = jobreg.New[*Job](2) // test-only hook: no job has been submitted yet
	e.solveFn = func(context.Context, Request) (*Result, error) {
		return &Result{Algo: AlgoIGMatch, Sides: []igpart.Side{igpart.U, igpart.W}}, nil
	}
	defer shutdownNow(t, e)

	var misses atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				j, err := e.Submit(Request{Netlist: h})
				if errors.Is(err, ErrQueueFull) {
					continue
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				got, ok := e.Cancel(j.ID())
				if !ok {
					continue // already finished and pruned: DELETE answers 404
				}
				if got != j {
					t.Errorf("Cancel(%s) resolved a different job", j.ID())
					return
				}
				if s := got.Snapshot(); s.ID != j.ID() {
					t.Errorf("snapshot ID %s, want %s", s.ID, j.ID())
				}
				if _, ok := e.Get(j.ID()); !ok {
					misses.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("a second lookup after Cancel missed %d time(s)", misses.Load())
}
