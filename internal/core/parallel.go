// Parallel sharded sweep engine. The rank range 1..m−1 is cut into P
// contiguous shards; each worker sweeps its shard with a private
// incremental matcher bootstrapped at the shard boundary by a from-scratch
// Hopcroft–Karp build (bipartite.NewMatcherAt). Because the Even/Odd/Core
// classification is canonical over maximum matchings (Dulmage–Mendelsohn),
// every shard sees exactly the per-split state the serial sweep would, and
// the lowest-rank-wins reduction in sweep() makes the combined result
// bit-identical to the serial engine for any P.
//
// Cost: each bootstrap is a Hopcroft–Karp build in O(e·√m) plus one
// O(pins) completer build, so the extra work over serial is P of each.
// The output-sensitive sweep itself costs far less than its O(m·(m+e))
// worst case (Theorem 6), so on paper-size circuits the bootstrap is a
// visible share of a shard, and the shards are embarrassingly parallel.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"igpart/internal/fault"
	"igpart/internal/hypergraph"
	"igpart/internal/obs"
	"igpart/internal/par"
)

// shardCount resolves the Parallelism option against the number of splits:
// 0 means GOMAXPROCS, and a shard never shrinks below one split.
func shardCount(parallelism, nSplits int) int {
	return par.Workers(parallelism, nSplits)
}

// runShards executes the sweep over the rank range [loRank, hiRank] in p
// contiguous shards and returns the per-shard winners in ascending rank
// order. Unconstrained sweeps pass the full range 1..m−1; a balance
// budget narrows it (see balanceRankWindow). trace, when non-nil, holds
// one record per rank of the window, trace[0] for loRank. p == 1 stays on
// the calling goroutine — the serial engine, with zero synchronization
// overhead.
//
// sw is the sweep stage span; each shard records under its own child
// span. Child spans are opened before the workers launch so the stage
// tree lists shards in ascending rank order regardless of scheduling.
func runShards(ctx context.Context, h *hypergraph.Hypergraph, adj [][]int, order []int, loRank, hiRank, p int, trace []SplitRecord, sw obs.Recorder, inj *fault.Injector, cons *constraints) []shardBest {
	if p <= 1 {
		return []shardBest{safeSweepShard(ctx, h, adj, order, loRank, hiRank+1, trace, shardSpan(sw, loRank, hiRank+1), inj, cons)}
	}
	// shardTrace is the slice of the window's trace that ranks [lo, hi) own.
	shardTrace := func(lo, hi int) []SplitRecord {
		if trace == nil {
			return nil
		}
		return trace[lo-loRank : hi-loRank]
	}
	shards := make([]shardBest, p)
	spans := make([]obs.Recorder, p)
	bounds := par.Bounds(p, hiRank-loRank+1) // rank ranges, shifted below
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		lo := loRank + bounds[i][0]
		hi := loRank + bounds[i][1]
		spans[i] = shardSpan(sw, lo, hi)
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			shards[i] = safeSweepShard(ctx, h, adj, order, lo, hi, shardTrace(lo, hi), spans[i], inj, cons)
		}(i, lo, hi)
	}
	wg.Wait()
	return shards
}

// slowShardDelay is the straggler latency the sweep.slow-shard fault
// injection point adds at shard start.
const slowShardDelay = 20 * time.Millisecond

// safeSweepShard runs one shard behind a recover barrier. The barrier
// is load-bearing: shards run on their own goroutines, where an
// unrecovered panic kills the whole process regardless of any recovery
// the job engine does around the solve — so a panicking shard must be
// converted to a structured shard error right here. The panic value and
// stack are captured in a fault.PanicError and counted in the run's
// sweep.shard_panics metric; the sweep reduction turns it into a failed
// run, and its sibling shards finish normally.
//
// The fault.SweepSlowShard injection point delays the shard's start to
// exercise straggler skew deterministically; it never changes results.
func safeSweepShard(ctx context.Context, h *hypergraph.Hypergraph, adj [][]int, order []int, lo, hi int, trace []SplitRecord, sp obs.Recorder, inj *fault.Injector, cons *constraints) (sb shardBest) {
	defer func() {
		if r := recover(); r != nil {
			sb = shardBest{err: fault.Recovered(r)}
			sp.Metrics().Counter("sweep.shard_panics").Add(1)
		}
	}()
	if inj.Active(fault.SweepSlowShard) {
		time.Sleep(slowShardDelay)
	}
	return sweepShard(ctx, h, adj, order, lo, hi, trace, sp, cons)
}

// shardSpan opens the stage span for one shard's rank range. The label
// is only built when a real recorder listens.
func shardSpan(sw obs.Recorder, lo, hi int) obs.Recorder {
	if !sw.Enabled() {
		return obs.Nop
	}
	return sw.StartSpan(fmt.Sprintf("shard[%d:%d)", lo, hi))
}
