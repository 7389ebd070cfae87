// Package multilevel implements a multilevel V-cycle over the paper's
// net-intersection formulation — the "coarsen, solve, uncoarsen, refine"
// paradigm of modern hypergraph partitioners (KaHyPar, SHyPar) applied to
// IG-Match.
//
// The cycle has three phases:
//
//  1. Coarsen: nets are greedily matched by heavy-edge affinity in the
//     intersection graph (the same Section 2.2 edge weights the eigensolve
//     uses) and merged pairwise — each coarse net's pin set is the union of
//     its two fine nets' pins. Modules are untouched, so every level shares
//     the input's module universe. Repeating this halves the net count per
//     level, and with it the cost of the eigensolve and of the
//     O(m·(m+e)) IG-Match sweep.
//  2. Solve: the coarsest level is partitioned by the full IG-Match
//     pipeline (Fiedler ordering of the coarse intersection graph, parallel
//     sweep with incremental matching, König completions).
//  3. Uncoarsen + refine: the winning net bipartition is projected back one
//     level at a time. At each level the projected net partition is
//     re-completed into a module partition by the Phase I/II König
//     machinery (core.CompleteNetPartition) and raced against the module
//     partition carried from the coarser level; the better of the
//     candidates is polished with ratio-cut FM passes against this level's
//     (finer) net structure, and the refined partition re-derives the net
//     sides for the next projection.
//
// With Levels=1 the cycle degenerates to exactly the flat IG-Match run —
// no coarsening, no extra refinement — and is bit-identical to
// core.Partition. At the finest level the coarsest module partition is kept
// as a safety-net candidate and FM never worsens the ratio cut, so the
// final result is provably no worse than the coarsest-level solution
// evaluated on the input netlist.
package multilevel

import (
	"context"
	"errors"
	"fmt"

	"igpart/internal/condense"
	"igpart/internal/core"
	"igpart/internal/fm"
	"igpart/internal/hypergraph"
	"igpart/internal/netmodel"
	"igpart/internal/obs"
	"igpart/internal/partition"
)

// Options configures a multilevel V-cycle run. The zero value runs a
// three-level cycle with the paper's IG-Match configuration at the
// coarsest level.
type Options struct {
	// Levels is the total number of levels in the V-cycle, counting the
	// input netlist: 1 disables coarsening entirely and reproduces flat
	// IG-Match bit for bit. Default 3. Coarsening may stop early when the
	// net count stops shrinking (see CoarseningRatio) or hits MinNets, so
	// this is an upper bound.
	Levels int
	// CoarseningRatio is the largest acceptable nets-after/nets-before
	// shrink factor per coarsening round: a round that leaves more than
	// this fraction of the nets alive stops the descent (the matching has
	// run out of affine pairs). Must lie in (0, 1]; default 0.9.
	CoarseningRatio float64
	// MinNets stops coarsening once a level has this few nets or fewer,
	// keeping the coarsest eigensolve meaningful. Default 24.
	MinNets int
	// Core configures the coarsest-level IG-Match solve (weight scheme,
	// eigensolver, sweep parallelism). Its IG options also drive the
	// heavy-edge affinity weights used for net matching at every level,
	// and its Ctx (when non-nil) is additionally polled by the V-cycle at
	// every coarsening round and uncoarsening level for cooperative
	// cancellation.
	Core core.Options
	// Rec, when non-nil, receives the V-cycle's stage spans: one coarsen
	// span with per-round net counts, the coarsest solve's full IG-Match
	// breakdown, and one uncoarsen span per projection level with the
	// completion cut and refinement gain. Tracing never changes the
	// result.
	Rec obs.Recorder
}

func (o Options) withDefaults() Options {
	if o.Levels <= 0 {
		o.Levels = 3
	}
	if o.CoarseningRatio <= 0 || o.CoarseningRatio > 1 {
		o.CoarseningRatio = 0.9
	}
	if o.MinNets <= 0 {
		o.MinNets = 24
	}
	return o
}

// LevelStat records what happened at one uncoarsening level, coarsest
// first. The feasibility and monotonicity tests key off these.
type LevelStat struct {
	// Nets is the level's net count.
	Nets int
	// CompletionOK reports whether the König completion of the projected
	// net bipartition produced a proper module partition.
	CompletionOK bool
	// Completion is the completion's metric set on this level (zero when
	// !CompletionOK).
	Completion partition.Metrics
	// Chosen names the candidate that won at this level before
	// refinement: "carried", "completion", or "coarsest".
	Chosen string
	// Refined is the level's final metric set (on this level's nets)
	// after the FM polish.
	Refined partition.Metrics
	// Passes is the number of FM passes the polish ran.
	Passes int
}

// Result is the outcome of a V-cycle run.
type Result struct {
	// Partition is the final module bipartition on the input netlist.
	Partition *partition.Bipartition
	// Metrics evaluates Partition on the input netlist.
	Metrics partition.Metrics
	// Levels is the number of levels actually built (1 when coarsening was
	// disabled or immediately stalled).
	Levels int
	// CoarsestNets is the net count of the coarsest level solved.
	CoarsestNets int
	// Coarsest is the coarsest-level IG-Match result (for Levels=1 runs it
	// is the entire result).
	Coarsest core.Result
	// CoarsestOnInput evaluates the coarsest-level module partition
	// directly on the input netlist — the baseline the V-cycle's
	// refinement provably never falls behind.
	CoarsestOnInput partition.Metrics
	// LevelStats describes each uncoarsening step, coarsest first; empty
	// for Levels=1 runs.
	LevelStats []LevelStat
}

// Partition runs the multilevel V-cycle on the netlist h.
func Partition(h *hypergraph.Hypergraph, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if h.NumNets() < 2 {
		return Result{}, errors.New("multilevel: need at least 2 nets")
	}
	if h.NumModules() < 2 {
		return Result{}, errors.New("multilevel: need at least 2 modules")
	}
	rec := obs.OrNop(opts.Rec)

	// Phase 1: build the level hierarchy. maps[k] sends level-k nets to
	// level-k+1 nets.
	levels := []*hypergraph.Hypergraph{h}
	var maps [][]int
	csp := rec.StartSpan("coarsen")
	for len(levels) < opts.Levels {
		if err := ctxErr(opts.Core.Ctx); err != nil {
			csp.End()
			return Result{}, fmt.Errorf("multilevel: cancelled during coarsening: %w", err)
		}
		cur := levels[len(levels)-1]
		if cur.NumNets() <= opts.MinNets {
			break
		}
		netMap, k := matchNets(cur, opts.Core.IG)
		if float64(k) > opts.CoarseningRatio*float64(cur.NumNets()) {
			break // matching stalled; deeper levels would not shrink
		}
		coarse, err := hypergraph.ContractNets(cur, netMap, k)
		if err != nil {
			csp.End()
			return Result{}, fmt.Errorf("multilevel: coarsening level %d: %w", len(levels), err)
		}
		levels = append(levels, coarse)
		maps = append(maps, netMap)
	}
	nLevels := len(levels)
	csp.Count("levels", int64(nLevels))
	csp.Count("finest-nets", int64(h.NumNets()))
	csp.Count("coarsest-nets", int64(levels[nLevels-1].NumNets()))
	csp.End()
	reg := rec.Metrics()
	reg.Gauge("multilevel.levels").Set(float64(nLevels))
	reg.Gauge("multilevel.coarsest_nets").Set(float64(levels[nLevels-1].NumNets()))
	if h.NumNets() > 0 {
		reg.Gauge("multilevel.coarsening_ratio").Set(float64(levels[nLevels-1].NumNets()) / float64(h.NumNets()))
	}

	// Phase 2: solve the coarsest level with the full IG-Match pipeline.
	ssp := rec.StartSpan("coarsest-solve")
	coreOpts := opts.Core
	coreOpts.Rec = ssp
	coarseRes, err := core.Partition(levels[nLevels-1], coreOpts)
	ssp.End()
	if err != nil {
		return Result{}, fmt.Errorf("multilevel: coarsest solve: %w", err)
	}
	if nLevels == 1 {
		// Flat IG-Match, bit for bit: no projection, no refinement.
		return Result{
			Partition:       coarseRes.Partition,
			Metrics:         coarseRes.Metrics,
			Levels:          1,
			CoarsestNets:    h.NumNets(),
			Coarsest:        coarseRes,
			CoarsestOnInput: coarseRes.Metrics,
		}, nil
	}

	// The winning net bipartition: the sweep moved NetOrder[:BestRank]
	// to the R side.
	inR := make([]bool, levels[nLevels-1].NumNets())
	for _, e := range coarseRes.NetOrder[:coarseRes.BestRank] {
		inR[e] = true
	}

	res := Result{
		Levels:          nLevels,
		CoarsestNets:    levels[nLevels-1].NumNets(),
		Coarsest:        coarseRes,
		CoarsestOnInput: partition.Evaluate(h, coarseRes.Partition),
	}

	// Phase 3: uncoarsen level by level. Modules are shared across all
	// levels, so the carried partition is directly valid one level down.
	p := coarseRes.Partition.Clone()
	for k := nLevels - 2; k >= 0; k-- {
		if err := ctxErr(opts.Core.Ctx); err != nil {
			return Result{}, fmt.Errorf("multilevel: cancelled during uncoarsening: %w", err)
		}
		lh := levels[k]
		usp := rec.StartSpan(fmt.Sprintf("uncoarsen-L%d", k))
		st := LevelStat{Nets: lh.NumNets(), Chosen: "carried"}

		// Project the net bipartition down and race the König completion
		// against the carried module partition.
		fineInR := make([]bool, lh.NumNets())
		for e := range fineInR {
			fineInR[e] = inR[maps[k][e]]
		}
		best := partition.Evaluate(lh, p)
		if cp, cmet, _, cerr := core.CompleteNetPartition(lh, fineInR); cerr == nil {
			st.CompletionOK = true
			st.Completion = cmet
			if ratioBetter(cmet, best) {
				p, best = cp, cmet
				st.Chosen = "completion"
			}
		}
		if k == 0 {
			// Safety net: the coarsest solution itself, evaluated on the
			// input netlist, guarantees Metrics ≤ CoarsestOnInput.
			if ratioBetter(res.CoarsestOnInput, best) {
				p, best = coarseRes.Partition.Clone(), res.CoarsestOnInput
				st.Chosen = "coarsest"
			}
		}
		usp.Count("completion-cut", int64(st.Completion.CutNets))

		// FM polish against this level's net structure. FM's prefix
		// selection should never worsen the ratio cut; stay defensive and
		// roll back if it somehow did, keeping the level monotone.
		st.Refined = best
		trial := p.Clone()
		met, passes, rerr := fm.RefinePartition(lh, trial, fm.Options{})
		if rerr != nil {
			usp.End()
			return Result{}, fmt.Errorf("multilevel: refining level %d: %w", k, rerr)
		}
		st.Passes = passes
		if ratioBetter(met, best) {
			p = trial
			st.Refined = met
		}
		usp.Count("refined-cut", int64(st.Refined.CutNets))
		usp.Count("fm-passes", int64(st.Passes))

		// The refined module partition re-derives the net sides driving
		// the next projection, so per-level gains propagate downward.
		if k > 0 {
			inR = netSides(lh, p)
		}
		usp.End()
		res.LevelStats = append(res.LevelStats, st)
	}

	res.Partition = p
	res.Metrics = partition.Evaluate(h, p)
	reg.Gauge("multilevel.final_ratio").Set(res.Metrics.RatioCut)
	return res, nil
}

// matchNets performs one round of heavy-edge net matching: the
// intersection graph supplies the affinity weights (same scheme as the
// eigensolve) and the greedy maximal matching merges the heaviest
// still-free pairs first.
func matchNets(h *hypergraph.Hypergraph, ig netmodel.IGOptions) ([]int, int) {
	g := netmodel.IntersectionGraph(h, ig)
	var pairs []condense.WeightedPair
	for i := 0; i < g.N(); i++ {
		cols, vals := g.Row(i)
		for j, c := range cols {
			if c > i {
				pairs = append(pairs, condense.WeightedPair{A: i, B: c, W: vals[j]})
			}
		}
	}
	return condense.MatchByWeight(h.NumNets(), pairs)
}

// netSides derives a net bipartition from a module partition: a net joins
// the R side when the majority of its pins sit on side W, with ties (and
// pinless nets) staying on the L side — deterministic by construction.
func netSides(h *hypergraph.Hypergraph, p *partition.Bipartition) []bool {
	inR := make([]bool, h.NumNets())
	for e := 0; e < h.NumNets(); e++ {
		onW := 0
		for _, v := range h.Pins(e) {
			if p.Side(v) == partition.W {
				onW++
			}
		}
		inR[e] = 2*onW > h.NetSize(e)
	}
	return inR
}

// ctxErr polls an optional context: nil contexts never cancel.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// ratioBetter orders candidate partitions the way the sweep does:
// primarily by ratio cut, then by fewer cut nets.
func ratioBetter(a, b partition.Metrics) bool {
	if a.RatioCut != b.RatioCut {
		return a.RatioCut < b.RatioCut
	}
	return a.CutNets < b.CutNets
}
