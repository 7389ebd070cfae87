package core

import (
	"fmt"
	"math/rand"
	"testing"

	"igpart/internal/hypergraph"
	"igpart/internal/obs"
	"igpart/internal/par"
	"igpart/internal/partition"
)

// FuzzSweep checks the sweep's output split by split on tiny hypergraphs
// (at most 12 modules and 16 nets) under an arbitrary net order: the
// serial and sharded engines trace the same records and pick the same
// partition, every feasible record respects Theorem 5 (cut ≤ |MM(B)|),
// and every record equals CompleteNetPartition's from-scratch completion
// of that split's net sides — infeasible in both or equal in matching
// size, cut and ratio cut. The candidate sweep over the same order, at a
// fuzzed budget (0 selects the default), and the rank-list sweep of a
// fuzzed rank subset (rank r is in it when bit r−1 of pick is set) must
// each trace its ranks exactly as the full sweep does and return the
// lowest-rank best of those records — or fail, serial and sharded alike,
// when none of them is feasible. An empty subset must be rejected.
func FuzzSweep(f *testing.F) {
	f.Add(uint8(6), []byte{2, 0, 1, 2, 1, 2, 3, 0, 3, 2, 4, 5}, []byte{3, 1, 4, 1, 5}, uint8(3), uint16(0b1101))
	f.Add(uint8(9), []byte{3, 0, 1, 2, 3, 3, 4, 5, 2, 5, 6, 2, 7, 8, 2, 0, 8}, []byte{9, 2, 6}, uint8(0), uint16(0))
	f.Add(uint8(12), []byte{4, 0, 1, 2, 3, 2, 3, 4, 4, 4, 5, 6, 7, 1, 7, 3, 7, 8, 9, 2, 9, 10, 2, 10, 11, 0, 2, 11, 0}, []byte{}, uint8(7), uint16(0xffff))
	f.Fuzz(func(t *testing.T, nMod uint8, nets, perm []byte, budget uint8, pick uint16) {
		n := int(nMod)%11 + 2
		b := hypergraph.NewBuilder().SetNumModules(n)
		// Decode nets as a stream: one size byte, then that many pins mod n.
		for i, k := 0, 0; i < len(nets) && k < 16; k++ {
			size := int(nets[i]) % 5
			i++
			pins := make([]int, 0, size)
			for j := 0; j < size && i < len(nets); j++ {
				pins = append(pins, int(nets[i])%n)
				i++
			}
			b.AddNet(pins...)
		}
		h := b.Build()
		m := h.NumNets()
		if m < 2 {
			return
		}
		// Fisher–Yates over the net indices, driven by perm's bytes.
		order := make([]int, m)
		for i := range order {
			order[i] = i
		}
		for i, k := m-1, 0; i > 0; i, k = i-1, k+1 {
			if k < len(perm) {
				j := int(perm[k]) % (i + 1)
				order[i], order[j] = order[j], order[i]
			}
		}

		var serial, sharded []SplitRecord
		resA, errA := PartitionWithOrder(h, order, Options{Parallelism: 1, Trace: &serial})
		resB, errB := PartitionWithOrder(h, order, Options{Parallelism: 3, Trace: &sharded})
		if (errA == nil) != (errB == nil) {
			t.Fatalf("P=1 err %v, P=3 err %v", errA, errB)
		}
		if len(serial) != m-1 || len(sharded) != m-1 {
			t.Fatalf("traces hold %d and %d records, want %d", len(serial), len(sharded), m-1)
		}
		if errA == nil {
			if resA.BestRank != resB.BestRank || resA.Metrics != resB.Metrics || !samePartition(resA.Partition, resB.Partition) {
				t.Fatalf("P=1 best (rank %d, %+v) differs from P=3 best (rank %d, %+v)",
					resA.BestRank, resA.Metrics, resB.BestRank, resB.Metrics)
			}
		}

		inR := make([]bool, m)
		for i, rec := range serial {
			rank := i + 1
			inR[order[i]] = true
			if !sameRecord(rec, sharded[i]) {
				t.Fatalf("rank %d: P=1 record %+v, P=3 record %+v", rank, rec, sharded[i])
			}
			if rec.Rank != rank {
				t.Fatalf("record %d has rank %d", i, rec.Rank)
			}
			if rec.CutNets > rec.MatchingSize {
				t.Fatalf("rank %d: cut %d exceeds the matching bound %d (Theorem 5)", rank, rec.CutNets, rec.MatchingSize)
			}
			_, met, mm, err := CompleteNetPartition(h, inR)
			if err != nil {
				if rec.CutNets != -1 {
					t.Fatalf("rank %d: sweep completed %+v, CompleteNetPartition found no proper completion", rank, rec)
				}
				continue
			}
			if rec.MatchingSize != mm || rec.CutNets != met.CutNets || rec.RatioCut != met.RatioCut {
				t.Fatalf("rank %d: sweep record %+v, CompleteNetPartition matching %d %+v", rank, rec, mm, met)
			}
		}

		var serialCand Result
		for _, p := range []int{1, 3} {
			var cands []SplitRecord
			res, err := PartitionCandidatesWithOrder(h, order, int(budget), Options{Parallelism: p, Trace: &cands})
			label := fmt.Sprintf("P=%d budget %d", p, budget)
			if !checkCandidateRun(t, label, cands, res, err, serial) {
				continue
			}
			if p == 1 {
				serialCand = res
			} else if !samePartition(res.Partition, serialCand.Partition) {
				t.Fatalf("budget %d: P=%d candidate partition differs from P=1's", budget, p)
			}
		}

		var ranks []int
		for r := 1; r < m; r++ {
			if pick&(1<<(r-1)) != 0 {
				ranks = append(ranks, r)
			}
		}
		if len(ranks) == 0 {
			if _, err := PartitionRanksWithOrder(h, order, ranks, Options{}); err == nil {
				t.Fatal("an empty rank list was accepted")
			}
			return
		}
		var serialList Result
		for _, p := range []int{1, 3} {
			var recs []SplitRecord
			res, err := PartitionRanksWithOrder(h, order, ranks, Options{Parallelism: p, Trace: &recs})
			label := fmt.Sprintf("P=%d ranks %v", p, ranks)
			if len(recs) != len(ranks) {
				t.Fatalf("%s: %d records for %d ranks", label, len(recs), len(ranks))
			}
			if !checkCandidateRun(t, label, recs, res, err, serial) {
				continue
			}
			if p == 1 {
				serialList = res
			} else if !samePartition(res.Partition, serialList.Partition) {
				t.Fatalf("ranks %v: P=%d partition differs from P=1's", ranks, p)
			}
		}
	})
}

// TestCandidateGapWalk runs the candidate sweep on both sides of the
// walk bound, which FuzzSweep's netlists of at most 16 nets never reach:
// over the randomCircuit seeds (140–290 nets) under a random net order,
// budgets from 4, whose gaps bootstrap, to 64, whose gaps are walked,
// unconstrained and under a balance window, at P=1 and P=3. Every
// candidate record must equal the full sweep's at its rank, the winner
// must be the lowest-rank best record, both parallelisms must agree, and
// each shard bootstraps at its first rank and after each gap longer than
// m/walkRatio, and nowhere else.
func TestCandidateGapWalk(t *testing.T) {
	var walked, booted int // gaps of two or more ranks walked and bootstrapped
	for seed := int64(0); seed < 7; seed++ {
		h := randomCircuit(t, seed)
		m, n := h.NumNets(), h.NumModules()
		order := rand.New(rand.NewSource(seed)).Perm(m)
		for _, bal := range []*Balance{nil, {MinU: n / 3, MaxU: 2 * n / 3}} {
			var full []SplitRecord
			// A run without a feasible split fails but still traces.
			_, _ = PartitionWithOrder(h, order, Options{Parallelism: 1, Balance: bal, Trace: &full})
			for _, budget := range []int{4, 8, 16, 24, 40, 64} {
				var serial Result
				for _, p := range []int{1, 3} {
					label := fmt.Sprintf("seed %d balance %v budget %d P=%d", seed, bal != nil, budget, p)
					var cands []SplitRecord
					tr := obs.NewTrace("candidates")
					res, err := PartitionCandidatesWithOrder(h, order, budget,
						Options{Parallelism: p, Balance: bal, Trace: &cands, Rec: tr})
					if checkCandidateRun(t, label, cands, res, err, full) {
						if p == 1 {
							serial = res
						} else if !samePartition(res.Partition, serial.Partition) {
							t.Fatalf("%s: partition differs from P=1's", label)
						}
					}
					want := int64(0)
					for _, b := range par.Bounds(min(p, len(cands)), len(cands)) {
						want++
						for i := b[0] + 1; i < b[1]; i++ {
							switch gap := cands[i].Rank - cands[i-1].Rank; {
							case walkRatio*gap > m:
								want++
								booted++
							case gap > 1:
								walked++
							}
						}
					}
					if got := tr.Metrics().Snapshot().Counters["sweep.bootstraps"]; got != want {
						t.Fatalf("%s: %d bootstraps, want %d", label, got, want)
					}
				}
			}
		}
	}
	if walked == 0 || booted == 0 {
		t.Fatalf("%d gaps walked and %d bootstrapped: the budgets miss a side of the bound", walked, booted)
	}
}

// checkCandidateRun checks a candidate sweep's records cands and its
// outcome (res, err) against full, the trace of the full sweep over the
// same order and options: the candidate ranks ascend, each record equals
// the full sweep's at that rank, and the run returns the lowest-rank best
// record — or fails when none of them is feasible. It reports whether the
// run has a winner.
func checkCandidateRun(t testing.TB, label string, cands []SplitRecord, res Result, err error, full []SplitRecord) bool {
	t.Helper()
	if len(cands) == 0 {
		t.Fatalf("%s: no candidate record", label)
	}
	var best *SplitRecord
	for i := range cands {
		rec := &cands[i]
		if i > 0 && rec.Rank <= cands[i-1].Rank {
			t.Fatalf("%s: candidate ranks %d, %d not ascending", label, cands[i-1].Rank, rec.Rank)
		}
		j := rec.Rank - full[0].Rank
		if j < 0 || j >= len(full) {
			t.Fatalf("%s: candidate rank %d outside the full sweep's ranks [%d,%d]",
				label, rec.Rank, full[0].Rank, full[len(full)-1].Rank)
		}
		if !sameRecord(*rec, full[j]) {
			t.Fatalf("%s: candidate record %+v, full sweep has %+v", label, *rec, full[j])
		}
		if rec.CutNets >= 0 && (best == nil || better(recMetrics(*rec), recMetrics(*best))) {
			best = rec
		}
	}
	if best == nil {
		if err == nil {
			t.Fatalf("%s: no candidate record is feasible, yet the run returned rank %d", label, res.BestRank)
		}
		return false
	}
	if err != nil {
		t.Fatalf("%s: best candidate %+v, yet the run failed: %v", label, *best, err)
	}
	if res.BestRank != best.Rank || res.BestMatching != best.MatchingSize ||
		res.Metrics.CutNets != best.CutNets || res.Metrics.RatioCut != best.RatioCut {
		t.Fatalf("%s: winner rank %d (matching %d, %+v), lowest-rank best record %+v",
			label, res.BestRank, res.BestMatching, res.Metrics, *best)
	}
	return true
}

// recMetrics views a feasible split record as the metrics better ranks.
func recMetrics(r SplitRecord) partition.Metrics {
	return partition.Metrics{CutNets: r.CutNets, RatioCut: r.RatioCut}
}
