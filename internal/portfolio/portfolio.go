// Package portfolio turns the fixed-algorithm pipeline into an adaptive
// one, two ways:
//
//   - Race: extract the instance's cheap feature vector
//     (internal/features), pick a starting lineup of engines suited to
//     its class, and race them under one parent context with a shared
//     budget — the first result meeting an acceptance ratio-cut bound
//     wins and cancels the losers; otherwise the best result standing
//     at the deadline wins.
//
//   - WarmStart (warm.go): re-solve an ECO delta of a previously solved
//     netlist by reusing its Fiedler ordering and sweeping once, over a
//     rank window around the previous winner and evenly spaced ranks of
//     the whole ordering — no eigensolve at all.
//
// Both paths record portfolio.* counters and per-contender obs spans.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"igpart/internal/features"
	"igpart/internal/hypergraph"
	"igpart/internal/obs"
	"igpart/internal/partition"
)

// Contender algorithm names. The first three match the bench suite's
// labels so reports line up.
const (
	AlgIGMatch    = "IG-Match"
	AlgMultilevel = "ML-IGMatch"
	AlgEIG1       = "EIG1"
	AlgCandidates = "IG-Candidates"
)

// errLostRace is the cancel cause handed to losing contenders.
var errLostRace = errors.New("portfolio: lost race")

// Options configures a portfolio race.
type Options struct {
	// Budget bounds the whole race; contenders still running when it
	// expires are cancelled and the best finished result wins. 0 means
	// no deadline — the race waits for every contender.
	Budget time.Duration
	// Accept, when positive, is the acceptance ratio-cut bound: the
	// first contender to finish at or under it wins immediately and
	// the rest are cancelled. 0 disables early acceptance, making the
	// outcome independent of contender timing (best result wins).
	Accept float64
	// Rec receives one span per contender plus race-level counters
	// (portfolio.started, portfolio.cancelled, portfolio.winner.<alg>).
	Rec obs.Recorder
	// Ctx is the parent context; cancelling it aborts the whole race.
	Ctx context.Context
}

// Contender is one engine's outcome within a race.
type Contender struct {
	Alg     string
	Metrics partition.Metrics
	Wall    time.Duration
	// Err is non-nil when the contender failed or was cancelled;
	// Cancelled distinguishes losing the race from genuine failure.
	Err       error
	Cancelled bool
}

// Result is the outcome of a race.
type Result struct {
	// Winner is the winning contender's algorithm name.
	Winner string
	// Partition and Metrics are the winning partition on the input.
	Partition *partition.Bipartition
	Metrics   partition.Metrics
	// NetOrder and BestRank carry the winner's sweep state when the
	// winning engine produces one on the input netlist (IG-Match and
	// IG-Candidates do; ML-IGMatch and EIG1 leave them empty). They
	// seed later WarmStart calls.
	NetOrder []int
	BestRank int
	Lambda2  float64
	// Features is the extracted feature vector that picked the lineup.
	Features features.Vector
	// Contenders reports every raced engine, lineup order.
	Contenders []Contender
	// Accepted reports whether the winner met the acceptance bound
	// early (as opposed to winning at the deadline).
	Accepted bool
}

// Lineup returns the starting lineup for a netlist with feature vector
// v, best engine first. The heuristic follows the bench taxonomy: small
// instances race the direct engines where spectral quality wins; dense
// instances lead with the module-side eigensolve, whose clique model
// sidesteps the heavy intersection graph; large instances lead with the
// engines whose sweep cost is sublinear in splits.
func Lineup(v features.Vector) []string {
	switch v.Class {
	case features.ClassTiny:
		return []string{AlgIGMatch, AlgEIG1}
	case features.ClassDense:
		return []string{AlgEIG1, AlgMultilevel, AlgIGMatch}
	case features.ClassLarge:
		return []string{AlgMultilevel, AlgCandidates, AlgEIG1}
	default: // sparse
		return []string{AlgIGMatch, AlgMultilevel, AlgEIG1}
	}
}

// outcome is what a contender run hands back to the race loop.
type outcome struct {
	part     *partition.Bipartition
	met      partition.Metrics
	netOrder []int
	bestRank int
	lambda2  float64
}

// runFunc runs one engine under ctx. Engines poll ctx cooperatively
// (per sweep split / Lanczos cycle) so a cancelled contender returns
// promptly.
type runFunc func(ctx context.Context, h *hypergraph.Hypergraph, rec obs.Recorder) (outcome, error)

// Runner runs the contender named alg on h under ctx, recording into
// rec, and fills the winner fields of a Result: the partition, its
// metrics and any sweep state. The engine table supplies it.
type Runner func(ctx context.Context, alg string, h *hypergraph.Hypergraph, rec obs.Recorder) (Result, error)

// Race runs the portfolio on h: lineup selection from the feature
// vector, then all contenders concurrently under one budgeted context,
// each run by run. See Options for the win conditions.
func Race(h *hypergraph.Hypergraph, opts Options, run Runner) (Result, error) {
	v := features.Extract(h)
	lineup := Lineup(v)
	runs := make([]runFunc, len(lineup))
	for i, alg := range lineup {
		runs[i] = func(ctx context.Context, h *hypergraph.Hypergraph, rec obs.Recorder) (outcome, error) {
			r, err := run(ctx, alg, h, rec)
			return outcome{part: r.Partition, met: r.Metrics, netOrder: r.NetOrder, bestRank: r.BestRank, lambda2: r.Lambda2}, err
		}
	}
	res, err := race(h, lineup, runs, opts)
	if err != nil {
		return Result{}, err
	}
	res.Features = v
	return res, nil
}

// race is the engine-agnostic core of Race, split out so tests can
// inject synthetic contenders and prove the cancellation protocol.
func race(h *hypergraph.Hypergraph, lineup []string, runs []runFunc, opts Options) (Result, error) {
	rec := obs.OrNop(opts.Rec)
	parent := opts.Ctx
	if parent == nil {
		parent = context.Background()
	}
	ctx := parent
	cancel := context.CancelFunc(func() {})
	if opts.Budget > 0 {
		ctx, cancel = context.WithTimeout(parent, opts.Budget)
	}
	defer cancel()

	type slot struct {
		out       outcome
		err       error
		wall      time.Duration
		cancelled bool
	}
	slots := make([]slot, len(runs))
	cancels := make([]context.CancelCauseFunc, len(runs))
	raceSpan := rec.StartSpan("portfolio-race")
	defer raceSpan.End()
	met := rec.Metrics()

	var mu sync.Mutex
	winner := -1 // index of the early-accepted contender, under mu
	var wg sync.WaitGroup
	for i := range runs {
		cctx, ccancel := context.WithCancelCause(ctx)
		cancels[i] = ccancel
		met.Counter("portfolio.started").Add(1)
		sp := raceSpan.StartSpan("contender:" + lineup[i])
		wg.Add(1)
		go func(i int, cctx context.Context, sp obs.Recorder) {
			defer wg.Done()
			defer sp.End()
			t0 := time.Now()
			out, err := runs[i](cctx, h, sp)
			wall := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			slots[i] = slot{out: out, err: err, wall: wall}
			if err != nil {
				if context.Cause(cctx) == errLostRace {
					slots[i].cancelled = true
				}
				return
			}
			// First acceptable result wins and cancels everyone else.
			if opts.Accept > 0 && out.met.RatioCut <= opts.Accept && winner < 0 {
				winner = i
				for j, c := range cancels {
					if j != i {
						c(errLostRace)
					}
				}
			}
		}(i, cctx, sp)
	}
	wg.Wait()
	cancelledTotal := 0
	for i := range cancels {
		cancels[i](nil) // release timers
		if slots[i].cancelled {
			cancelledTotal++
		}
	}
	met.Counter("portfolio.cancelled").Add(int64(cancelledTotal))

	res := Result{Contenders: make([]Contender, len(runs))}
	best := -1
	for i, s := range slots {
		res.Contenders[i] = Contender{Alg: lineup[i], Metrics: s.out.met, Wall: s.wall, Err: s.err, Cancelled: s.cancelled}
		if s.err != nil {
			continue
		}
		if best < 0 || betterMetrics(s.out.met, slots[best].out.met) {
			best = i
		}
	}
	if winner >= 0 {
		best = winner
		res.Accepted = true
	}
	if best < 0 {
		// Nothing finished. Prefer the parent/budget error; otherwise
		// surface the first contender failure.
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("portfolio: no contender finished within budget: %w", err)
		}
		for _, s := range slots {
			if s.err != nil {
				return Result{}, fmt.Errorf("portfolio: all contenders failed: %w", s.err)
			}
		}
		return Result{}, errors.New("portfolio: empty lineup")
	}
	w := slots[best]
	res.Winner = lineup[best]
	res.Partition = w.out.part
	res.Metrics = w.out.met
	res.NetOrder = w.out.netOrder
	res.BestRank = w.out.bestRank
	res.Lambda2 = w.out.lambda2
	met.Counter("portfolio.winner." + res.Winner).Add(1)
	met.Gauge("portfolio.winner_ratio").Set(res.Metrics.RatioCut)
	return res, nil
}

// betterMetrics orders race results like the sweep reduction orders
// splits: lower ratio cut first, then fewer cut nets; the earlier
// lineup slot keeps ties.
func betterMetrics(a, b partition.Metrics) bool {
	if a.RatioCut != b.RatioCut {
		return a.RatioCut < b.RatioCut
	}
	return a.CutNets < b.CutNets
}
