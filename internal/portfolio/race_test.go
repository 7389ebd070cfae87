package portfolio

import (
	"context"
	"errors"
	"testing"
	"time"

	"igpart/internal/hypergraph"
	"igpart/internal/obs"
	"igpart/internal/partition"
)

// fakeOutcome builds a trivial valid outcome with the given ratio cut.
func fakeOutcome(ratio float64) outcome {
	return outcome{
		part: partition.New(4),
		met:  partition.Metrics{RatioCut: ratio, CutNets: 1, SizeU: 2, SizeW: 2},
	}
}

// TestRaceCancelsLosers proves the cancellation protocol: one contender
// finishes under the acceptance bound, the other blocks until cancelled.
// The blocked contender must observe its cancellation well within 2s,
// and the portfolio counters must record it.
func TestRaceCancelsLosers(t *testing.T) {
	tr := obs.NewTrace("race")
	h := base44()
	cancelledIn := make(chan time.Duration, 1)
	t0 := time.Now()
	slow := func(ctx context.Context, _ *hypergraph.Hypergraph, _ obs.Recorder) (outcome, error) {
		select {
		case <-ctx.Done():
			cancelledIn <- time.Since(t0)
			return outcome{}, context.Cause(ctx)
		case <-time.After(30 * time.Second):
			return outcome{}, errors.New("slow contender was never cancelled")
		}
	}
	fast := func(ctx context.Context, _ *hypergraph.Hypergraph, _ obs.Recorder) (outcome, error) {
		return fakeOutcome(0.001), nil
	}
	res, err := race(h, []string{"slow", "fast"}, []runFunc{slow, fast}, Options{
		Accept: 0.01,
		Rec:    tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "fast" || !res.Accepted {
		t.Fatalf("winner = %q accepted=%v, want fast via accept bound", res.Winner, res.Accepted)
	}
	select {
	case d := <-cancelledIn:
		if d > 2*time.Second {
			t.Fatalf("loser cancelled after %v, want < 2s", d)
		}
	default:
		t.Fatal("slow contender never saw cancellation")
	}
	m := tr.Metrics()
	if got := m.Counter("portfolio.started").Value(); got != 2 {
		t.Fatalf("portfolio.started = %d, want 2", got)
	}
	if got := m.Counter("portfolio.cancelled").Value(); got != 1 {
		t.Fatalf("portfolio.cancelled = %d, want 1", got)
	}
	if got := m.Counter("portfolio.winner.fast").Value(); got != 1 {
		t.Fatalf("portfolio.winner.fast = %d, want 1", got)
	}
	var loser Contender
	for _, c := range res.Contenders {
		if c.Alg == "slow" {
			loser = c
		}
	}
	if !loser.Cancelled || loser.Err == nil {
		t.Fatalf("loser not marked cancelled: %+v", loser)
	}
}

// TestRaceBestAtDeadline: with no acceptance bound every contender runs
// to completion and the best ratio cut wins deterministically.
func TestRaceBestAtDeadline(t *testing.T) {
	mk := func(r float64) runFunc {
		return func(ctx context.Context, _ *hypergraph.Hypergraph, _ obs.Recorder) (outcome, error) {
			return fakeOutcome(r), nil
		}
	}
	res, err := race(base44(), []string{"a", "b", "c"}, []runFunc{mk(0.5), mk(0.2), mk(0.9)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "b" || res.Accepted {
		t.Fatalf("winner = %q accepted=%v, want b at deadline", res.Winner, res.Accepted)
	}
	if got := len(res.Contenders); got != 3 {
		t.Fatalf("contenders = %d", got)
	}
}

// TestRaceBudgetExpiry: when no contender finishes inside the budget the
// race fails with the deadline error.
func TestRaceBudgetExpiry(t *testing.T) {
	block := func(ctx context.Context, _ *hypergraph.Hypergraph, _ obs.Recorder) (outcome, error) {
		<-ctx.Done()
		return outcome{}, ctx.Err()
	}
	_, err := race(base44(), []string{"block"}, []runFunc{block}, Options{Budget: 50 * time.Millisecond})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", err)
	}
}

// TestRaceFailedContenderSurfacesOthers: one engine failing must not
// sink the race while another succeeds.
func TestRaceFailedContenderSurfacesOthers(t *testing.T) {
	boom := func(ctx context.Context, _ *hypergraph.Hypergraph, _ obs.Recorder) (outcome, error) {
		return outcome{}, errors.New("boom")
	}
	ok := func(ctx context.Context, _ *hypergraph.Hypergraph, _ obs.Recorder) (outcome, error) {
		return fakeOutcome(0.3), nil
	}
	res, err := race(base44(), []string{"bad", "good"}, []runFunc{boom, ok}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "good" {
		t.Fatalf("winner = %q", res.Winner)
	}
	if res.Contenders[0].Err == nil || res.Contenders[0].Cancelled {
		t.Fatalf("failed contender misreported: %+v", res.Contenders[0])
	}
}
