// Package fm implements Fiduccia–Mattheyses iterative partitioning on
// netlist hypergraphs: the classical balance-constrained min-cut bisection,
// and a multi-start ratio-cut optimizer (RCut) patterned on the Wei–Cheng
// RCut1.0 program the paper compares against — random initial partitions,
// gain-driven shifting passes with the prefix chosen by ratio-cut value,
// and best-of-N reporting.
package fm

import (
	"errors"
	"math"
	"math/rand"
	"sync"

	"igpart/internal/hypergraph"
	"igpart/internal/partition"
)

// Options configures an FM run. The zero value gives a balanced bisection
// with a 10% tolerance and a single start.
type Options struct {
	// Starts is the number of random initial partitions tried (best kept).
	// Default 1.
	Starts int
	// BalanceTolerance is the allowed deviation from the target split as a
	// fraction of the module count, used only by Bisect. Default 0.1.
	BalanceTolerance float64
	// TargetFraction is the desired |U|/n for Bisect — the r of the
	// Fiduccia–Mattheyses r-bipartition formulation the paper's Section 1.1
	// cites. Default 0.5 (plain bisection). Must lie in (0, 1).
	TargetFraction float64
	// UseWeights makes RatioCut optimize the area-weighted ratio cut
	// cut/(w(U)·w(W)) instead of the module-count form.
	UseWeights bool
	// Parallel runs the independent random starts on separate goroutines.
	// Results are identical to the sequential run for the same Seed (each
	// start derives its own sub-seed).
	Parallel bool
	// Fixed marks modules that must stay on their current side (I/O pads,
	// pre-placed macros). Used by RefinePartition; multi-start entry points
	// ignore it because their random initial sides would be meaningless for
	// pinned modules.
	Fixed []bool
	// Seed seeds the initial random partitions.
	Seed int64
}

// maxPasses bounds the improvement passes per start.
const maxPasses = 16

func (o Options) withDefaults() Options {
	if o.Starts <= 0 {
		o.Starts = 1
	}
	if o.BalanceTolerance <= 0 {
		o.BalanceTolerance = 0.1
	}
	if o.TargetFraction <= 0 || o.TargetFraction >= 1 {
		o.TargetFraction = 0.5
	}
	return o
}

// Result reports the best partition found together with run statistics.
type Result struct {
	Partition *partition.Bipartition
	Metrics   partition.Metrics
	// Passes is the total number of improvement passes executed across all
	// starts.
	Passes int
	// StartCosts records the final objective of each start (cut nets for
	// Bisect, ratio cut for RatioCut), exposing the run-to-run variance
	// that motivates the paper's stability argument.
	StartCosts []float64
}

// engine holds the bucket-list gain structure for one pass sequence.
type engine struct {
	h       *hypergraph.Hypergraph
	side    []partition.Side
	pinsOnU []int
	cut     int
	sizes   [2]int

	weights []int
	wsizes  [2]int

	gain    []int
	locked  []bool
	fixed   []bool // immovable modules (nil = none)
	maxDeg  int
	buckets [][]int // gain+maxDeg -> stack of candidate modules (lazy)
	inBkt   []int   // scheduled bucket index per module, -1 if none
	maxPtr  int
}

func newEngine(h *hypergraph.Hypergraph, p *partition.Bipartition) *engine {
	n := h.NumModules()
	e := &engine{
		h:       h,
		side:    p.Sides(),
		pinsOnU: make([]int, h.NumNets()),
		gain:    make([]int, n),
		locked:  make([]bool, n),
		inBkt:   make([]int, n),
	}
	e.weights = make([]int, n)
	for v := 0; v < n; v++ {
		e.weights[v] = h.ModuleWeight(v)
		e.sizes[e.side[v]]++
		e.wsizes[e.side[v]] += e.weights[v]
		if d := h.Degree(v); d > e.maxDeg {
			e.maxDeg = d
		}
	}
	for net := 0; net < h.NumNets(); net++ {
		onU := 0
		for _, v := range h.Pins(net) {
			if e.side[v] == partition.U {
				onU++
			}
		}
		e.pinsOnU[net] = onU
		if onU > 0 && onU < h.NetSize(net) {
			e.cut++
		}
	}
	e.buckets = make([][]int, 2*e.maxDeg+1)
	return e
}

// computeGain returns the FM cell gain of v from the current state.
func (e *engine) computeGain(v int) int {
	from := e.side[v]
	g := 0
	for _, net := range e.h.Nets(v) {
		size := e.h.NetSize(net)
		if size < 2 {
			continue
		}
		onFrom := e.pinsOnU[net]
		if from == partition.W {
			onFrom = size - onFrom
		}
		if onFrom == 1 {
			g++
		} else if onFrom == size {
			g--
		}
	}
	return g
}

// initPass unlocks every module and rebuilds the gain buckets.
func (e *engine) initPass() {
	for i := range e.buckets {
		e.buckets[i] = e.buckets[i][:0]
	}
	e.maxPtr = 0
	for v := 0; v < e.h.NumModules(); v++ {
		if e.fixed != nil && e.fixed[v] {
			e.locked[v] = true // pinned for the whole pass
			continue
		}
		e.locked[v] = false
		e.gain[v] = e.computeGain(v)
		e.push(v)
	}
}

func (e *engine) push(v int) {
	idx := e.gain[v] + e.maxDeg
	e.buckets[idx] = append(e.buckets[idx], v)
	e.inBkt[v] = idx
	if idx > e.maxPtr {
		e.maxPtr = idx
	}
}

// pop returns the highest-gain unlocked module passing the filter, or −1.
// Entries are lazily invalidated: a module whose recorded bucket no longer
// matches its gain is stale and skipped.
func (e *engine) pop(filter func(v int) bool) int {
	for idx := e.maxPtr; idx >= 0; idx-- {
		bkt := e.buckets[idx]
		for len(bkt) > 0 {
			v := bkt[len(bkt)-1]
			bkt = bkt[:len(bkt)-1]
			if e.locked[v] || e.inBkt[v] != idx || e.gain[v]+e.maxDeg != idx {
				continue // stale
			}
			if !filter(v) {
				// Keep v for later; it stays out of the bucket for this
				// scan but must be re-pushed for subsequent pops.
				defer e.push(v)
				continue
			}
			e.buckets[idx] = bkt
			e.maxPtr = idx
			return v
		}
		e.buckets[idx] = bkt
	}
	return -1
}

// reschedule updates v's gain by delta and re-files it.
func (e *engine) reschedule(v, delta int) {
	e.gain[v] += delta
	if !e.locked[v] {
		e.push(v)
	}
}

// move executes the FM move of v with the standard incremental gain
// updates, locks v, and returns nothing; cut and sizes are kept current.
func (e *engine) move(v int) {
	from := e.side[v]
	to := from.Opposite()
	for _, net := range e.h.Nets(v) {
		size := e.h.NetSize(net)
		if size < 2 {
			continue
		}
		onTo := e.pinsOnU[net]
		if to == partition.W {
			onTo = size - onTo
		}
		// Before-move rules.
		if onTo == 0 {
			for _, u := range e.h.Pins(net) {
				if !e.locked[u] && u != v {
					e.reschedule(u, +1)
				}
			}
		} else if onTo == 1 {
			for _, u := range e.h.Pins(net) {
				if u != v && e.side[u] == to && !e.locked[u] {
					e.reschedule(u, -1)
					break
				}
			}
		}
		// Count update.
		wasCut := e.pinsOnU[net] > 0 && e.pinsOnU[net] < size
		if from == partition.U {
			e.pinsOnU[net]--
		} else {
			e.pinsOnU[net]++
		}
		isCut := e.pinsOnU[net] > 0 && e.pinsOnU[net] < size
		if wasCut && !isCut {
			e.cut--
		} else if !wasCut && isCut {
			e.cut++
		}
		// After-move rules.
		onFrom := e.pinsOnU[net]
		if from == partition.W {
			onFrom = size - onFrom
		}
		if onFrom == 0 {
			for _, u := range e.h.Pins(net) {
				if !e.locked[u] && u != v {
					e.reschedule(u, -1)
				}
			}
		} else if onFrom == 1 {
			for _, u := range e.h.Pins(net) {
				if u != v && e.side[u] == from && !e.locked[u] {
					e.reschedule(u, +1)
					break
				}
			}
		}
	}
	e.side[v] = to
	e.sizes[from]--
	e.sizes[to]++
	e.wsizes[from] -= e.weights[v]
	e.wsizes[to] += e.weights[v]
	e.locked[v] = true
}

// passObjective abstracts what a pass optimizes: it scores the engine's
// current state and smaller is better.
type passObjective func(e *engine) float64

// runPass performs one full FM pass under the given move filter and
// objective, then rolls back to the best prefix. It reports whether the
// objective improved relative to the pass start.
func (e *engine) runPass(filter func(v int) bool, objective passObjective) bool {
	e.initPass()
	startScore := objective(e)
	bestScore := startScore
	bestPrefix := 0
	moves := make([]int, 0, e.h.NumModules())
	for {
		v := e.pop(filter)
		if v < 0 {
			break
		}
		e.move(v)
		moves = append(moves, v)
		if s := objective(e); s < bestScore {
			bestScore = s
			bestPrefix = len(moves)
		}
	}
	// Roll back moves beyond the best prefix.
	for i := len(moves) - 1; i >= bestPrefix; i-- {
		v := moves[i]
		e.locked[v] = false // unlock so gain updates propagate symmetrically
		e.undoMove(v)
	}
	return bestScore < startScore
}

// undoMove reverses a move without gain bookkeeping (used during rollback,
// after which initPass rebuilds gains from scratch anyway).
func (e *engine) undoMove(v int) {
	from := e.side[v]
	to := from.Opposite()
	for _, net := range e.h.Nets(v) {
		size := e.h.NetSize(net)
		wasCut := e.pinsOnU[net] > 0 && e.pinsOnU[net] < size
		if from == partition.U {
			e.pinsOnU[net]--
		} else {
			e.pinsOnU[net]++
		}
		isCut := e.pinsOnU[net] > 0 && e.pinsOnU[net] < size
		if size >= 2 {
			if wasCut && !isCut {
				e.cut--
			} else if !wasCut && isCut {
				e.cut++
			}
		}
	}
	e.side[v] = to
	e.sizes[from]--
	e.sizes[to]++
	e.wsizes[from] -= e.weights[v]
	e.wsizes[to] += e.weights[v]
}

// randomPartition assigns each module a uniform random side.
func randomPartition(n int, rng *rand.Rand) *partition.Bipartition {
	p := partition.New(n)
	for v := 0; v < n; v++ {
		if rng.Intn(2) == 1 {
			p.Set(v, partition.W)
		}
	}
	return p
}

// Bisect runs multi-start FM min-cut r-bipartition: side U must hold
// TargetFraction of the modules within BalanceTolerance·n (the classical
// bisection is TargetFraction = 0.5).
func Bisect(h *hypergraph.Hypergraph, opts Options) (Result, error) {
	opts = opts.withDefaults()
	n := h.NumModules()
	if n < 2 {
		return Result{}, errors.New("fm: need at least 2 modules")
	}
	slack := int(opts.BalanceTolerance * float64(n))
	if slack < 1 {
		slack = 1
	}
	target := int(opts.TargetFraction*float64(n) + 0.5)
	objective := func(e *engine) float64 {
		if abs(e.sizes[0]-target) > slack {
			return math.Inf(1) // outside balance: never selectable as prefix
		}
		return float64(e.cut)
	}
	return runMultiStart(h, opts, objective, func(e *engine) func(int) bool {
		return func(v int) bool {
			dev := e.sizes[0] - target
			newDev := dev + 1
			if e.side[v] == partition.U {
				newDev = dev - 1
			}
			// Allow any move toward the target; otherwise keep the
			// excursion within the tolerance (+2 for in-pass exploration —
			// the objective's +Inf outside tolerance guards the prefix).
			return abs(newDev) < abs(dev) || abs(newDev) <= slack+2
		}
	})
}

// RatioCut runs the RCut-style multi-start ratio-cut optimizer.
func RatioCut(h *hypergraph.Hypergraph, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if h.NumModules() < 2 {
		return Result{}, errors.New("fm: need at least 2 modules")
	}
	objective := ratioObjective(opts.UseWeights)
	return runMultiStart(h, opts, objective, func(e *engine) func(int) bool {
		return func(v int) bool {
			return e.sizes[e.side[v]] > 1 // keep both sides non-empty
		}
	})
}

// ratioObjective builds the ratio-cut pass objective, optionally using
// module area weights in the denominator.
func ratioObjective(useWeights bool) passObjective {
	if useWeights {
		return func(e *engine) float64 {
			return partition.RatioCutFrom(e.cut, e.wsizes[0], e.wsizes[1])
		}
	}
	return func(e *engine) float64 {
		return partition.RatioCutFrom(e.cut, e.sizes[0], e.sizes[1])
	}
}

// startSeed derives the sub-seed of one random start, making results
// identical whether the starts run sequentially or in parallel.
func startSeed(seed int64, start int) int64 {
	return seed + int64(start)*0x9E3779B9
}

func runMultiStart(h *hypergraph.Hypergraph, opts Options, objective passObjective, mkFilter func(*engine) func(int) bool) (Result, error) {
	type startResult struct {
		p      *partition.Bipartition
		met    partition.Metrics
		score  float64
		passes int
	}
	results := make([]startResult, opts.Starts)
	runOne := func(s int) {
		rng := rand.New(rand.NewSource(startSeed(opts.Seed, s)))
		p := randomPartition(h.NumModules(), rng)
		e := newEngine(h, p)
		filter := mkFilter(e)
		passes := 0
		for pass := 0; pass < maxPasses; pass++ {
			passes++
			if !e.runPass(filter, objective) {
				break
			}
		}
		results[s] = startResult{
			p:      p,
			met:    partition.Evaluate(h, p),
			score:  objective(e),
			passes: passes,
		}
	}
	if opts.Parallel {
		var wg sync.WaitGroup
		for s := 0; s < opts.Starts; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				runOne(s)
			}(s)
		}
		wg.Wait()
	} else {
		for s := 0; s < opts.Starts; s++ {
			runOne(s)
		}
	}

	var best Result
	bestScore := math.Inf(1)
	for _, r := range results {
		best.Passes += r.passes
		best.StartCosts = append(best.StartCosts, r.score)
		if r.score < bestScore {
			bestScore = r.score
			best.Partition = r.p
			best.Metrics = r.met
		}
	}
	if best.Partition == nil {
		return Result{}, errors.New("fm: no start produced a feasible partition")
	}
	return best, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
