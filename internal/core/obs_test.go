package core

import (
	"testing"

	"igpart/internal/bipartite"
	"igpart/internal/obs"
)

// TestObsCountersMatchGroundTruth cross-checks the observability layer
// against quantities the sweep itself guarantees: the traced span tree
// and the metrics registry must agree exactly with the SplitRecord
// trace and the returned result, for the serial engine and for every
// sharded configuration. Tracing is a read-only window — if these
// counters drift from ground truth the window is lying.
func TestObsCountersMatchGroundTruth(t *testing.T) {
	h := randomCircuit(t, 3)
	m := h.NumNets()

	// Ground truth for the Phase I and Phase II work counters, from a
	// serial walk of the same ordering: the winners at every split, and
	// the nets whose winner class changed between consecutive splits.
	base, err := Partition(h, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wantWinners, wantReclassified int64
	matcher := bipartite.NewMatcher(IGAdjacency(h))
	prevWin := make([]uint8, m)
	for rank := 1; rank < m; rank++ {
		matcher.MoveToR(base.NetOrder[rank-1])
		matcher.Classify()
		for e := range prevWin {
			w := winClass(matcher, e)
			if w != 0 {
				wantWinners++
			}
			if rank > 1 && w != prevWin[e] {
				wantReclassified++
			}
			prevWin[e] = w
		}
	}

	for _, p := range []int{0, 1, 2, 4, 8} {
		tr := obs.NewTrace("igmatch")
		var trace []SplitRecord
		res, err := Partition(h, Options{Parallelism: p, Rec: tr, Trace: &trace})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		root := tr.Finish()

		sweep := root.Find("sweep")
		if sweep == nil {
			t.Fatalf("p=%d: no sweep span in trace:\n%s", p, obs.FormatTree(root))
		}
		// Every rank 1..m−1 is evaluated exactly once across all shards.
		if got := sweep.Sum("splits"); got != int64(m-1) {
			t.Errorf("p=%d: span splits = %d, want %d", p, got, m-1)
		}
		snap := tr.Metrics().Snapshot()
		if got := snap.Counters["sweep.splits"]; got != int64(m-1) {
			t.Errorf("p=%d: registry sweep.splits = %d, want %d", p, got, m-1)
		}
		if len(trace) != m-1 {
			t.Fatalf("p=%d: %d split records, want %d", p, len(trace), m-1)
		}
		// The winning split's recorded cut is the cut the result reports.
		best := trace[res.BestRank-1]
		if best.Rank != res.BestRank {
			t.Errorf("p=%d: trace[%d].Rank = %d", p, res.BestRank-1, best.Rank)
		}
		if best.CutNets != res.Metrics.CutNets {
			t.Errorf("p=%d: cut at best rank %d vs reported %d",
				p, best.CutNets, res.Metrics.CutNets)
		}
		// Phase II evaluated at least the winning split, and augmentations
		// accumulated across shards appear in both sinks identically.
		if got := sweep.Sum("phase2-evals"); got < 1 {
			t.Errorf("p=%d: phase2-evals = %d, want ≥ 1", p, got)
		}
		for _, c := range []struct{ span, reg string }{
			{"augmentations", "sweep.augmentations"},
			{"bootstraps", "sweep.bootstraps"},
			{"phase1-winners", "sweep.phase1_winners"},
			{"phase1-scanned", "sweep.phase1_scanned"},
			{"reclassified", "sweep.reclassified"},
		} {
			if a, b := sweep.Sum(c.span), snap.Counters[c.reg]; a != b {
				t.Errorf("p=%d: span %s %d != registry %s %d", p, c.span, a, c.reg, b)
			}
		}
		if got := sweep.Sum("phase1-winners"); got != wantWinners {
			t.Errorf("p=%d: phase1-winners = %d, want %d", p, got, wantWinners)
		}
		if got := sweep.Sum("phase1-scanned"); got < 1 {
			t.Errorf("p=%d: phase1-scanned = %d, want ≥ 1", p, got)
		}
		// Each shard builds its first split from scratch, so only the
		// serial sweep counts every consecutive-split change.
		if got := sweep.Sum("reclassified"); p == 1 && got != wantReclassified {
			t.Errorf("serial reclassified = %d, want %d", got, wantReclassified)
		}
		// Shard spans match the reduction's reported shard count.
		shards := 0
		for i := range sweep.Children {
			if sweep.Children[i].Name != "" {
				shards++
			}
		}
		if got := sweep.Counters["shards"]; got != int64(shards) {
			t.Errorf("p=%d: shards counter %d vs %d shard spans", p, got, shards)
		}
		if p == 1 && shards != 1 {
			t.Errorf("serial sweep produced %d shard spans", shards)
		}
		// A full sweep walks every rank after a shard's first.
		if got := sweep.Sum("bootstraps"); got != int64(shards) {
			t.Errorf("p=%d: %d bootstraps over %d shards", p, got, shards)
		}
		// Gauges mirror the result.
		if got := snap.Gauges["sweep.best_rank"]; got != float64(res.BestRank) {
			t.Errorf("p=%d: best_rank gauge %g vs %d", p, got, res.BestRank)
		}
	}
}

// TestObsTracingChangesNothing asserts the tracing-on result is
// bit-identical to the tracing-off result: same partition, same metrics,
// same winning rank.
func TestObsTracingChangesNothing(t *testing.T) {
	h := randomCircuit(t, 5)
	plain, err := Partition(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("igmatch")
	traced, err := Partition(h, Options{Rec: tr})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Metrics != traced.Metrics || plain.BestRank != traced.BestRank {
		t.Errorf("tracing changed the result: %+v rank %d vs %+v rank %d",
			plain.Metrics, plain.BestRank, traced.Metrics, traced.BestRank)
	}
	for v := 0; v < h.NumModules(); v++ {
		if plain.Partition.Side(v) != traced.Partition.Side(v) {
			t.Fatalf("assignment differs at module %d", v)
		}
	}
}
