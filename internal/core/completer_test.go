package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"igpart/internal/bipartite"
	"igpart/internal/hypergraph"
	"igpart/internal/partition"
)

// sameState reports the first difference between two completers' kept
// Phase II state, or "" when they agree.
func sameState(a, b *completer) string {
	switch {
	case !slices.Equal(a.win, b.win):
		return "net winner classes"
	case !slices.Equal(a.onU, b.onU) || !slices.Equal(a.onW, b.onW):
		return "per-module winner-net counts"
	case !slices.Equal(a.col, b.col):
		return "module coloring"
	case !slices.Equal(a.pinU, b.pinU) || !slices.Equal(a.pinW, b.pinW):
		return "per-net pin counts"
	case a.nU != b.nU || a.nW != b.nW:
		return fmt.Sprintf("side sizes %d/%d vs %d/%d", a.nU, a.nW, b.nU, b.nW)
	case a.winners != b.winners:
		return fmt.Sprintf("winner count %d vs %d", a.winners, b.winners)
	case a.cutToU != b.cutToU || a.cutToW != b.cutToW:
		return fmt.Sprintf("cut counts %d/%d vs %d/%d", a.cutToU, a.cutToW, b.cutToU, b.cutToW)
	}
	return ""
}

// checkSweepState walks order with one incrementally advanced completer,
// one net at a time and then in strides of 2–9 nets with one advance per
// stride, as the sweep walks a short gap between candidates. At every
// visited split it checks the kept state and the score against a fresh
// O(pins) build, and the split's completion against an independent one:
// completeBulk (scored with partition.Evaluate) on the unconstrained path,
// and partition.Evaluate of the materialized completion on the
// constrained one.
func checkSweepState(t *testing.T, label string, h *hypergraph.Hypergraph, order []int, cons *constraints) {
	t.Helper()
	adj := IGAdjacency(h)
	fresh := newCompleter(h, cons)
	sides := make([]partition.Side, h.NumModules())
	for stride := 1; stride <= 9; stride++ {
		matcher := bipartite.NewMatcher(adj)
		inc := newCompleter(h, cons)
		for prev, rank := 0, stride; rank < len(order); prev, rank = rank, rank+stride {
			moved := order[prev:rank]
			for _, e := range moved {
				matcher.MoveToR(e)
			}
			matcher.Classify()
			if prev == 0 {
				inc.build(matcher)
			} else {
				inc.advance(matcher, moved)
			}
			fresh.build(matcher)
			at := fmt.Sprintf("%s stride %d rank %d", label, stride, rank)
			if diff := sameState(inc, fresh); diff != "" {
				t.Fatalf("%s: incremental state differs from a fresh build: %s", at, diff)
			}
			met, vnSide, ok := inc.score()
			// An infeasible split leaves the side unset.
			if fmet, fside, fok := fresh.score(); ok != fok || (ok && (met != fmet || vnSide != fside)) {
				t.Fatalf("%s: score %+v side %v (ok=%v), a fresh build scores %+v side %v (ok=%v)",
					at, met, vnSide, ok, fmet, fside, fok)
			}
			if cons == nil {
				want, wantPart, wantOK := completeBulk(h, matcher.Winners(), sides)
				if ok != wantOK || (ok && met != want) {
					t.Fatalf("%s: evaluate %+v (ok=%v), completeBulk %+v (ok=%v)", at, met, ok, want, wantOK)
				}
				if ok && !samePartition(inc.materializeBest(vnSide), wantPart) {
					t.Fatalf("%s: materialized completion differs from completeBulk's", at)
				}
				continue
			}
			if ok {
				if got := partition.Evaluate(h, inc.materializeBest(vnSide)); got != met {
					t.Fatalf("%s: constrained score %+v, its completion evaluates to %+v", at, met, got)
				}
			}
		}
	}
}

func samePartition(a, b *partition.Bipartition) bool {
	for v := 0; v < a.NumModules(); v++ {
		if a.Side(v) != b.Side(v) {
			return false
		}
	}
	return a.NumModules() == b.NumModules()
}

// TestCompleterIncrementalEqualsBuild checks the kept Phase II state at
// every split of the randomCircuit seeds, and at every split a stride of
// 2–9 nets visits, under a random net order, with
// and without FixedSides (the pinned runs also carry a tight balance
// window, so the affinity-ordered balanced completion runs too).
func TestCompleterIncrementalEqualsBuild(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		h := randomCircuit(t, seed)
		rng := rand.New(rand.NewSource(seed))
		order := rng.Perm(h.NumNets())
		checkSweepState(t, fmt.Sprintf("seed %d", seed), h, order, nil)

		n := h.NumModules()
		fixed := make([]int8, n)
		for v := range fixed {
			fixed[v] = -1
			switch rng.Intn(9) {
			case 0:
				fixed[v] = 0
			case 1:
				fixed[v] = 1
			}
		}
		cons, err := newConstraints(Options{FixedSides: fixed, Balance: &Balance{MinU: n/2 - 3, MaxU: n/2 + 3}}, n)
		if err != nil {
			t.Fatal(err)
		}
		checkSweepState(t, fmt.Sprintf("seed %d pinned", seed), h, order, cons)
	}
}

// sameRecord compares two split records, +Inf ratio cuts included.
func sameRecord(a, b SplitRecord) bool {
	return a.Rank == b.Rank && a.MatchingSize == b.MatchingSize && a.CutNets == b.CutNets &&
		(a.RatioCut == b.RatioCut || (math.IsInf(a.RatioCut, 1) && math.IsInf(b.RatioCut, 1)))
}

// rankRange lists the ranks lo..hi.
func rankRange(lo, hi int) []int {
	ranks := make([]int, 0, max(hi-lo+1, 0))
	for r := lo; r <= hi; r++ {
		ranks = append(ranks, r)
	}
	return ranks
}

// TestWindowedTraceMatchesFullSweep checks that a sweep restricted to a
// rank window traces exactly the ranks it swept, each record equal to the
// unwindowed sweep's at that rank: rank lists swept by
// PartitionRanksWithOrder against the full sweep, and a balance budget
// (which prunes to its own rank window) against the same budget with a
// list inside its window and one across it, whose ranks outside the
// window are dropped. Shards starting mid-ordering build their
// completer state there, so this also covers the incremental completer's
// mid-ordering start. A rank list reaching past the last split is
// rejected, not clamped.
func TestWindowedTraceMatchesFullSweep(t *testing.T) {
	run := func(h *hypergraph.Hypergraph, order []int, ranks []int, opts Options) []SplitRecord {
		t.Helper()
		var trace []SplitRecord
		opts.Trace = &trace
		// A window without a proper completion fails the run but still
		// traces its ranks, all infeasible.
		if ranks == nil {
			_, _ = PartitionWithOrder(h, order, opts)
		} else {
			_, _ = PartitionRanksWithOrder(h, order, ranks, opts)
		}
		return trace
	}
	check := func(label string, trace []SplitRecord, lo, hi int, ref []SplitRecord, refLo int) {
		t.Helper()
		if len(trace) != hi-lo+1 {
			t.Fatalf("%s: %d records, want %d for ranks [%d,%d]", label, len(trace), hi-lo+1, lo, hi)
		}
		for i, rec := range trace {
			if want := ref[lo-refLo+i]; rec.Rank != lo+i || !sameRecord(rec, want) {
				t.Fatalf("%s: record %d is %+v, the wider sweep has %+v", label, i, rec, want)
			}
		}
	}
	for seed := int64(0); seed < 4; seed++ {
		h := randomCircuit(t, seed)
		order := rand.New(rand.NewSource(seed)).Perm(h.NumNets())
		m, n := h.NumNets(), h.NumModules()
		full := run(h, order, nil, Options{Parallelism: 1})
		bal := &Balance{MinU: n / 3, MaxU: 2 * n / 3}
		blo, bhi := balanceRankWindow(bal, n, m-1)
		balFull := run(h, order, nil, Options{Parallelism: 1, Balance: bal})
		if len(balFull) != bhi-blo+1 {
			t.Fatalf("seed %d: balance sweep traced %d records, want %d for ranks [%d,%d]",
				seed, len(balFull), bhi-blo+1, blo, bhi)
		}
		for i, rec := range balFull { // the budget changes scores, not matchings
			if want := full[blo-1+i]; rec.Rank != want.Rank || rec.MatchingSize != want.MatchingSize {
				t.Fatalf("seed %d: balance record %d is %+v, full sweep has %+v", seed, i, rec, want)
			}
		}
		for _, p := range []int{1, 3} {
			label := fmt.Sprintf("seed %d P=%d", seed, p)
			check(label+" [40,60]", run(h, order, rankRange(40, 60), Options{Parallelism: p}), 40, 60, full, 1)
			if _, err := PartitionRanksWithOrder(h, order, rankRange(m-10, m+5), Options{Parallelism: p}); err == nil {
				t.Fatalf("%s: ranks past the end [%d,%d] accepted", label, m-10, m+5)
			}
			check(label+" inside the balance window",
				run(h, order, rankRange(blo+5, bhi-5), Options{Parallelism: p, Balance: bal}),
				blo+5, bhi-5, balFull, blo)
			check(label+" across the balance window",
				run(h, order, rankRange(max(blo-5, 1), min(bhi+5, m-1)), Options{Parallelism: p, Balance: bal}),
				blo, bhi, balFull, blo)
		}
	}
}
