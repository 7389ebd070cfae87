// Scalable candidate-split engine. The full sweep evaluates every split
// of the net ordering — O(m·(m+e)) by Theorem 6 — which is the right
// trade at benchmark sizes but infeasible at 10⁵–10⁶ nets, where the
// eigensolve should dominate, not the sweep. PartitionCandidates keeps
// the spectral pipeline intact and completes only a bounded set of
// evenly spaced candidate splits. The candidates run through the same
// shard walker as the full sweep, which carries one matcher and one
// completer across the gaps: a candidate at most m/10 ranks past the
// previous one is reached by moving the nets in between (MoveToR), one
// Classify and one completer advance, so 11 or more candidates, the
// default 32 among them, cost one Hopcroft–Karp bootstrap per shard. A
// candidate after a longer gap, as with 10 or fewer spread over the
// whole ordering, is bootstrapped with its own from-scratch matching
// (bipartite.NewMatcherAt). Because the Even/Odd/Core classification is
// canonical over maximum matchings, every candidate sees exactly the
// per-split state the serial sweep would at that rank, so each
// completion carries the Theorem 5 cut bound; only the splits in
// between go unscored.
package core

import (
	"igpart/internal/hypergraph"
)

// DefaultCandidates is the candidate-split budget PartitionCandidates
// uses when the caller passes 0. The Fiedler sweep profile is smooth
// near its minimum on real netlists, so a few dozen probes of the
// ordering recover the full sweep's ratio cut to within a few percent.
const DefaultCandidates = 32

// PartitionCandidates runs the scalable IG-Match variant: the spectral
// net ordering is computed exactly as in Partition, then candidates
// evenly spaced splits of the ordering (0 = DefaultCandidates) are
// completed concurrently under opts.Parallelism and the best completion
// wins. The reduction admits a later candidate only on strict metric
// improvement, so ties resolve to the lowest rank and the result is
// bit-identical for every parallelism. opts.Trace receives one record
// per candidate, and a Balance budget narrows the rank window the
// candidates spread over.
func PartitionCandidates(h *hypergraph.Hypergraph, candidates int, opts Options) (Result, error) {
	return fiedlerSweep(h, candidateBudget(candidates), opts)
}

// PartitionCandidatesWithOrder runs the candidate sweep over an
// externally supplied net ordering, the evenly-spaced counterpart of
// PartitionWithOrder. At the default 32 candidates it walks the ordering
// once, one matching repair per net and one completion per candidate,
// after a single Hopcroft–Karp bootstrap per shard.
func PartitionCandidatesWithOrder(h *hypergraph.Hypergraph, order []int, candidates int, opts Options) (Result, error) {
	return sweep(h, order, candidateBudget(candidates), nil, opts)
}

// candidateBudget resolves a caller's candidate count to the sweep's
// budget: 0 or less selects DefaultCandidates (the budget 0 itself means
// the full sweep).
func candidateBudget(candidates int) int {
	if candidates <= 0 {
		return DefaultCandidates
	}
	return candidates
}

// CandidateRanks returns the evenly spaced, strictly ascending ranks a
// candidate sweep with a positive budget probes over the ranks
// 1..nSplits of an ordering, at most candidates of them. A warm start
// merges them into its rank list for PartitionRanksWithOrder.
func CandidateRanks(candidates, nSplits int) []int {
	candidates = max(min(candidates, nSplits), 0)
	ranks := make([]int, 0, candidates)
	prev := 0
	for i := 0; i < candidates; i++ {
		r := (nSplits + 1) / 2
		if candidates > 1 {
			r = 1 + i*(nSplits-1)/(candidates-1)
		}
		if r != prev {
			ranks = append(ranks, r)
			prev = r
		}
	}
	return ranks
}

// candidateRanksWindow spreads the candidate budget over the rank window
// [lo, hi] instead of the whole ordering; the full-range call reduces to
// CandidateRanks exactly, keeping the unconstrained engine bit-identical.
func candidateRanksWindow(candidates, lo, hi int) []int {
	ranks := CandidateRanks(candidates, hi-lo+1)
	if lo != 1 {
		for i := range ranks {
			ranks[i] += lo - 1
		}
	}
	return ranks
}
