// Scalable candidate-split engine. The full sweep evaluates every split
// of the net ordering — O(m·(m+e)) by Theorem 6 — which is the right
// trade at benchmark sizes but infeasible at 10⁵–10⁶ nets, where the
// eigensolve should dominate, not the sweep. PartitionCandidates keeps
// the spectral pipeline intact and completes only a bounded set of
// evenly spaced candidate splits, each bootstrapped with its own
// from-scratch Hopcroft–Karp matching (bipartite.NewMatcherAt). Because
// the Even/Odd/Core classification is canonical over maximum matchings,
// every candidate sees exactly the per-split state the serial sweep
// would at that rank, so each completion carries the Theorem 5 cut
// bound; only the splits in between go unexplored.
package core

import (
	"errors"
	"fmt"

	"igpart/internal/bipartite"
	"igpart/internal/fault"
	"igpart/internal/hypergraph"
	"igpart/internal/obs"
	"igpart/internal/par"
	"igpart/internal/partition"
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
// bit-identical for every parallelism. opts.Trace is ignored — per-split
// traces are a full-sweep feature.
func PartitionCandidates(h *hypergraph.Hypergraph, candidates int, opts Options) (Result, error) {
	m := h.NumNets()
	if m < 2 {
		return Result{}, errors.New("core: IG-Match needs at least 2 nets")
	}
	if h.NumModules() < 2 {
		return Result{}, errors.New("core: IG-Match needs at least 2 modules")
	}
	order, lambda2, err := fiedlerOrder(h, opts)
	if err != nil {
		return Result{}, err
	}
	res, err := candidateSweep(h, order, candidates, opts)
	if err != nil {
		return Result{}, err
	}
	res.Lambda2 = lambda2
	return res, nil
}

// PartitionCandidatesWithOrder runs the candidate sweep over an
// externally supplied net ordering, the evenly-spaced counterpart of
// PartitionWithOrder. Warm starts use it as a cheap global probe: a
// dense window around the previous best rank can miss an optimum the
// perturbation relocated, and a few dozen spaced completions over the
// whole ordering catch that at O(candidates·(m+e)) cost.
func PartitionCandidatesWithOrder(h *hypergraph.Hypergraph, order []int, candidates int, opts Options) (Result, error) {
	if len(order) != h.NumNets() {
		return Result{}, fmt.Errorf("core: order has %d entries, want %d", len(order), h.NumNets())
	}
	return candidateSweep(h, order, candidates, opts)
}

// candidateRanks returns the evenly spaced, strictly ascending rank set
// probed over 1..nSplits.
func candidateRanks(candidates, nSplits int) []int {
	if candidates <= 0 {
		candidates = DefaultCandidates
	}
	if candidates > nSplits {
		candidates = nSplits
	}
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
// candidateRanks exactly, keeping the unconstrained engine bit-identical.
func candidateRanksWindow(candidates, lo, hi int) []int {
	ranks := candidateRanks(candidates, hi-lo+1)
	if lo != 1 {
		for i := range ranks {
			ranks[i] += lo - 1
		}
	}
	return ranks
}

// candidateSweep completes the candidate splits of the given ordering
// and reduces to the best, mirroring sweep()'s reduction semantics. A
// balance budget concentrates the candidates on the rank window that can
// plausibly reach it (see balanceRankWindow).
func candidateSweep(h *hypergraph.Hypergraph, order []int, candidates int, opts Options) (Result, error) {
	m := h.NumNets()
	cons, err := newConstraints(opts, h.NumModules())
	if err != nil {
		return Result{}, err
	}
	rec := obs.OrNop(opts.Rec)
	sp := rec.StartSpan("conflict-adjacency")
	adj := IGAdjacency(h)
	sp.End()

	loRank, hiRank := 1, m-1
	if cons != nil {
		loRank, hiRank = balanceRankWindow(cons.bal, h.NumModules(), m-1)
	}
	ranks := candidateRanksWindow(candidates, loRank, hiRank)
	sw := rec.StartSpan("candidate-sweep")
	p := par.Workers(opts.Parallelism, len(ranks))
	bounds := par.Bounds(p, len(ranks))
	spans := make([]obs.Recorder, p)
	for i := 0; i < p; i++ {
		spans[i] = shardSpan(sw, ranks[bounds[i][0]], ranks[bounds[i][1]-1]+1)
	}
	results := make([]shardBest, p)
	par.Run(p, func(i int) {
		results[i] = safeCandidateShard(h, adj, order, ranks[bounds[i][0]:bounds[i][1]], opts, spans[i], cons)
	})

	best := Result{NetOrder: order}
	bestCost := partition.Metrics{RatioCut: inf()}
	haveBest := false
	for _, sb := range results {
		if sb.err != nil {
			sw.End()
			if _, ok := fault.AsPanic(sb.err); ok {
				return Result{}, fmt.Errorf("core: candidate shard panicked: %w", sb.err)
			}
			return Result{}, fmt.Errorf("core: candidate sweep cancelled: %w", sb.err)
		}
		if sb.have && better(sb.met, bestCost) {
			bestCost = sb.met
			best.Partition = sb.part
			best.Metrics = sb.met
			best.BestRank = sb.rank
			best.BestMatching = sb.matching
			haveBest = true
		}
	}
	sw.Count("candidates", int64(len(ranks)))
	sw.Count("shards", int64(p))
	sw.End()
	if !haveBest {
		if cons != nil {
			return Result{}, ErrNoFeasibleCompletion
		}
		return Result{}, errors.New("core: no proper completion found (every candidate split left one side empty)")
	}
	reg := rec.Metrics()
	reg.Counter("sweep.candidates").Add(int64(len(ranks)))
	reg.Gauge("sweep.best_rank").Set(float64(best.BestRank))
	reg.Gauge("sweep.best_ratio").Set(best.Metrics.RatioCut)

	// The recursive extension is pin- and balance-oblivious; it only
	// augments unconstrained runs.
	if opts.RecursionDepth > 0 && cons == nil {
		if p2, met2, ok := completeRecursive(h, winnersAt(adj, order, best.BestRank), opts); ok && better(met2, best.Metrics) {
			best.Partition = p2
			best.Metrics = met2
			best.Recursed = true
		}
	}
	return best, nil
}

// safeCandidateShard evaluates one worker's share of the candidate ranks
// behind the same recover barrier the sweep shards use: the worker runs
// on its own goroutine, so a panic must become a structured shard error
// here or it kills the process.
func safeCandidateShard(h *hypergraph.Hypergraph, adj [][]int, order []int, ranks []int, opts Options, sp obs.Recorder, cons *constraints) (sb shardBest) {
	defer func() {
		if r := recover(); r != nil {
			sb = shardBest{err: fault.Recovered(r)}
			sp.Metrics().Counter("sweep.shard_panics").Add(1)
		}
	}()
	return candidateShard(h, adj, order, ranks, opts, sp, cons)
}

// candidateShard completes each rank in ranks (ascending) and keeps the
// shard-local best. Each candidate gets its own Hopcroft–Karp bootstrap
// at its boundary; the inR prefix marches forward incrementally, so the
// whole shard fills it O(m) total.
func candidateShard(h *hypergraph.Hypergraph, adj [][]int, order []int, ranks []int, opts Options, sp obs.Recorder, cons *constraints) shardBest {
	comp := newCompleter(h, cons)
	inR := make([]bool, len(adj))
	idx := 0

	var sb shardBest
	bestCost := partition.Metrics{RatioCut: inf()}
	var winners, infeasible, augmentations, scanned int64
	for _, rank := range ranks {
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				sb.err = err
				break
			}
		}
		for ; idx < rank-1; idx++ {
			inR[order[idx]] = true
		}
		matcher := bipartite.NewMatcherAt(adj, inR)
		matcher.MoveToR(order[rank-1])
		scanned += int64(matcher.Classify())
		comp.build(matcher)
		winners += int64(comp.winners)
		augmentations += int64(matcher.Augmentations())
		met, vnSide, ok := comp.score()
		if !ok {
			infeasible++
			continue
		}
		if better(met, bestCost) {
			bestCost = met
			sb.have = true
			sb.met = met
			sb.part = comp.materializeBest(vnSide)
			sb.rank = rank
			sb.matching = matcher.MatchingSize()
		}
	}
	sp.Count("splits", int64(len(ranks)))
	sp.Count("phase1-winners", winners)
	sp.Count("phase1-scanned", scanned)
	sp.Count("infeasible", infeasible)
	reg := sp.Metrics()
	reg.Counter("sweep.splits").Add(int64(len(ranks)))
	reg.Counter("sweep.augmentations").Add(augmentations)
	reg.Counter("sweep.phase1_winners").Add(winners)
	reg.Counter("sweep.phase1_scanned").Add(scanned)
	sp.End()
	return sb
}
