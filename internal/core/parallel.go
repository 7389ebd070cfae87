// Parallel sharded sweep engine. sweep() cuts its ascending rank list
// into P contiguous shards; each worker walks its shard with a private
// incremental matcher, bootstrapped by a from-scratch Hopcroft–Karp
// build (bipartite.NewMatcherAt) at the shard boundary and again after
// any gap longer than m/10 between ranks. Because the Even/Odd/Core
// classification is canonical over maximum matchings
// (Dulmage–Mendelsohn), every shard sees exactly the per-split state the
// serial sweep would, and the lowest-rank-wins reduction in sweep()
// makes the combined result bit-identical to the serial engine for any
// P. The full, candidate and rank-list sweeps all run through this one
// engine.
//
// Cost: each bootstrap is a Hopcroft–Karp build in O(e·√m) plus one
// O(pins) completer build, so the extra work of a contiguous sweep over
// serial is P of each, and a candidate sweep pays one per long gap. The
// output-sensitive sweep itself costs far less than its O(m·(m+e)) worst
// case (Theorem 6), so on paper-size circuits the bootstrap is a visible
// share of a shard, and the shards are embarrassingly parallel.
package core

import (
	"context"
	"fmt"
	"time"

	"igpart/internal/fault"
	"igpart/internal/hypergraph"
	"igpart/internal/obs"
)

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
func safeSweepShard(ctx context.Context, h *hypergraph.Hypergraph, adj [][]int, order []int, ranks []int, trace []SplitRecord, sp obs.Recorder, inj *fault.Injector, cons *constraints) (sb shardBest) {
	defer func() {
		if r := recover(); r != nil {
			sb = shardBest{err: fault.Recovered(r)}
			sp.Metrics().Counter("sweep.shard_panics").Add(1)
		}
	}()
	if inj.Active(fault.SweepSlowShard) {
		time.Sleep(slowShardDelay)
	}
	return sweepShard(ctx, h, adj, order, ranks, trace, sp, cons)
}

// shardSpan opens the stage span for one shard's rank range. The label
// is only built when a real recorder listens.
func shardSpan(sw obs.Recorder, lo, hi int) obs.Recorder {
	if !sw.Enabled() {
		return obs.Nop
	}
	return sw.StartSpan(fmt.Sprintf("shard[%d:%d)", lo, hi))
}
