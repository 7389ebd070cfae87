// The recursive-bisection engine: each level halves its part range,
// derives the left-group size window its share of the ε budget allows,
// and runs an IG-Match bisection constrained to that window with the
// level's fixed modules pinned (core.Balance / core.FixedSides). The
// window math is chosen so feasibility is inductive — a level that
// respects its window hands both children solvable subproblems — and a
// deterministic fallback split repaired by FM-gain moves covers levels
// whose sweep finds no feasible completion (degenerate sub-netlists,
// eigensolve failures, empty windows after pruning).
package multiway

import (
	"context"
	"errors"
	"fmt"
	"math"

	"igpart/internal/core"
	"igpart/internal/hypergraph"
	"igpart/internal/obs"
	"igpart/internal/partition"
)

// Partition produces a balanced k-way module partition of h satisfying
// the (K, Eps, Fixed) contract: exactly K non-empty parts, every part at
// most PartCap(n, K, Eps) modules, every fixed module in its pinned part.
func Partition(h *hypergraph.Hypergraph, opts Options) (Result, error) {
	n := h.NumModules()
	partCap, err := CheckContract(n, opts.K, opts.Eps, opts.Fixed)
	if err != nil {
		return Result{}, fmt.Errorf("multiway: %w", err)
	}
	if opts.Spectral {
		return spectralK(h, opts, partCap)
	}
	part := make([]int, n)
	rec := obs.OrNop(opts.Core.Rec)
	if err := recurse(h, opts, rec, allModules(n), 0, opts.K, partCap, part); err != nil {
		return Result{}, err
	}
	res := Evaluate(h, part, opts.K)
	res.Cap = partCap
	return res, nil
}

// CheckContract checks a balanced k-way request on n modules (k parts,
// imbalance budget eps, and fixed, when non-nil, one part index or −1 per
// module) and returns the per-part cap PartCap(n, k, eps). The checks are
// exactly the feasibility preconditions the recursion preserves: k ≥ 2,
// n ≥ k, eps ≥ 0, every part's pinned modules fit under the cap, and
// there are enough free modules to make every pin-less part non-empty.
// Its messages carry no prefix: Partition adds "multiway:", and the
// service answers them as 400 bodies.
func CheckContract(n, k int, eps float64, fixed []int) (int, error) {
	if k < 2 {
		return 0, fmt.Errorf("k=%d, need at least 2", k)
	}
	if n < k {
		return 0, fmt.Errorf("%d modules cannot form %d parts", n, k)
	}
	if math.IsNaN(eps) || eps < 0 {
		return 0, fmt.Errorf("imbalance budget eps=%v, need >= 0", eps)
	}
	partCap := PartCap(n, k, eps)
	if fixed == nil {
		return partCap, nil
	}
	if len(fixed) != n {
		return 0, fmt.Errorf("fixed has %d entries, want %d", len(fixed), n)
	}
	count := make([]int, k)
	nFixed := 0
	for v, p := range fixed {
		if p < -1 || p >= k {
			return 0, fmt.Errorf("fixed[%d]=%d outside [-1,%d)", v, p, k)
		}
		if p >= 0 {
			count[p]++
			nFixed++
		}
	}
	needy := 0
	for p, c := range count {
		if c > partCap {
			return 0, fmt.Errorf("%d modules pinned to part %d exceed the %d-module cap", c, p, partCap)
		}
		if c == 0 {
			needy++
		}
	}
	if n-nFixed < needy {
		return 0, fmt.Errorf("only %d free modules for %d parts with no pinned module", n-nFixed, needy)
	}
	return partCap, nil
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// levelSpan opens the stage span for one recursion level; the label is
// only built when a real recorder listens.
func levelSpan(rec obs.Recorder, p0, k int) obs.Recorder {
	if !rec.Enabled() {
		return obs.Nop
	}
	return rec.StartSpan(fmt.Sprintf("kway-level[p%d:p%d]", p0, p0+k))
}

// recurse assigns parts p0..p0+k−1 to modules. The context is polled at
// every level entry, so a cancelled run unwinds within one bisection.
// Child levels record under this level's span, nesting the level tree.
func recurse(h *hypergraph.Hypergraph, opts Options, rec obs.Recorder, modules []int, p0, k, partCap int, part []int) error {
	if err := ctxErr(opts.Core.Ctx); err != nil {
		return fmt.Errorf("multiway: cancelled before level p%d:p%d: %w", p0, p0+k, err)
	}
	if k == 1 {
		for _, v := range modules {
			part[v] = p0
		}
		return nil
	}
	sp := levelSpan(rec, p0, k)
	defer sp.End()
	sp.Count("modules", int64(len(modules)))
	kL := (k + 1) / 2
	left, right, err := splitGroup(h, opts, sp, modules, p0, kL, k-kL, partCap)
	if err != nil {
		return err
	}
	sp.Count("left", int64(len(left)))
	sp.Count("right", int64(len(right)))
	if err := recurse(h, opts, sp, left, p0, kL, partCap, part); err != nil {
		return err
	}
	return recurse(h, opts, sp, right, p0+kL, k-kL, partCap, part)
}

// splitGroup bisects one level's modules into the kL-part left group and
// the kR-part right group, honoring the size window
//
//	sizeL ∈ [max(n − kR·cap, fixedL+needyL), min(kL·cap, n − fixedR − needyR)]
//
// — the exact condition under which both children remain feasible:
// the right group fits under its caps, and each group keeps its pinned
// modules plus one free module per pin-less part.
func splitGroup(h *hypergraph.Hypergraph, opts Options, sp obs.Recorder, modules []int, p0, kL, kR, partCap int) (left, right []int, err error) {
	nSub := len(modules)
	k := kL + kR
	fixedCount := make([]int, k)
	hasFix := false
	for _, v := range modules {
		if opts.Fixed != nil && opts.Fixed[v] >= 0 {
			fixedCount[opts.Fixed[v]-p0]++
			hasFix = true
		}
	}
	fixedL, needyL := 0, 0
	for i := 0; i < kL; i++ {
		fixedL += fixedCount[i]
		if fixedCount[i] == 0 {
			needyL++
		}
	}
	fixedR, needyR := 0, 0
	for i := kL; i < k; i++ {
		fixedR += fixedCount[i]
		if fixedCount[i] == 0 {
			needyR++
		}
	}
	lo := nSub - kR*partCap
	if m := fixedL + needyL; m > lo {
		lo = m
	}
	hi := kL * partCap
	if m := nSub - fixedR - needyR; m < hi {
		hi = m
	}
	if lo > hi {
		return nil, nil, fmt.Errorf("multiway: infeasible level p%d:p%d: left window [%d,%d] over %d modules", p0, p0+k, lo, hi, nSub)
	}

	// The top level partitions the whole netlist: skip the subgraph copy
	// (also what keeps k=2 runs on the identical IG-Match path).
	sub, moduleMap := h, []int(nil)
	if nSub != h.NumModules() {
		keep := make([]bool, h.NumModules())
		for _, v := range modules {
			keep[v] = true
		}
		sub, moduleMap, _ = hypergraph.SubHypergraph(h, keep)
	}
	var fixedSides []int8
	if hasFix {
		fixedSides = make([]int8, nSub)
		for i := range fixedSides {
			fixedSides[i] = -1
			v := i
			if moduleMap != nil {
				v = moduleMap[i]
			}
			if p := opts.Fixed[v]; p >= 0 && p-p0 >= kL {
				fixedSides[i] = 1
			} else if p >= 0 {
				fixedSides[i] = 0
			}
		}
	}

	constrained := hasFix || lo > 1 || hi < nSub-1
	sides, met, err := bisectSides(sub, fixedSides, lo, hi, constrained, opts, sp)
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return nil, nil, err
	}
	if hasFix {
		// The sweep grows U from one end of the Fiedler ordering, so it
		// realizes only one orientation of each cut — and the pins break
		// the U/W symmetry, possibly sitting at the wrong end. Solve the
		// mirrored problem too and keep the better completion.
		s2, met2, err2 := bisectSides(sub, flipFixed(fixedSides), nSub-hi, nSub-lo, true, opts, sp)
		if err2 != nil && (errors.Is(err2, context.Canceled) || errors.Is(err2, context.DeadlineExceeded)) {
			return nil, nil, err2
		}
		if err2 == nil {
			for i, s := range s2 {
				if s == partition.U {
					s2[i] = partition.W
				} else {
					s2[i] = partition.U
				}
			}
			if err != nil || met2.RatioCut < met.RatioCut {
				sides, err = s2, nil
				sp.Count("mirror-win", 1)
			}
		}
	}
	if err != nil {
		// Degenerate sub-netlist, eigensolve failure, or an infeasible
		// sweep: fall back to a deterministic split that honors the pins
		// and the window, then let the FM repair below polish it.
		sp.Count("fallback", 1)
		sides = fallbackSides(nSub, fixedSides, lo, hi, kL, kR)
	}
	szU := 0
	for _, s := range sides {
		if s == partition.U {
			szU++
		}
	}
	if szU < lo || szU > hi {
		if err := repairWindow(sub, sides, fixedSides, szU, lo, hi); err != nil {
			return nil, nil, err
		}
	}
	for i, s := range sides {
		v := i
		if moduleMap != nil {
			v = moduleMap[i]
		}
		if s == partition.U {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	return left, right, nil
}

// bisectSides runs one IG-Match bisection, constrained to the balance
// window and pins when the level needs them. An unconstrained level (k=2
// with an unbounded budget and no pins) takes the exact paper path —
// that is the bit-parity guarantee with the plain IGMatch bisection.
func bisectSides(sub *hypergraph.Hypergraph, fixedSides []int8, lo, hi int, constrained bool, opts Options, sp obs.Recorder) ([]partition.Side, partition.Metrics, error) {
	if sub.NumNets() < 2 || sub.NumModules() < 2 {
		return nil, partition.Metrics{}, errors.New("multiway: sub-netlist too degenerate to bisect")
	}
	co := opts.Core
	co.Trace = nil
	co.Rec = sp
	co.Balance = nil
	co.FixedSides = nil
	if constrained {
		co.Balance = &core.Balance{MinU: lo, MaxU: hi}
		co.FixedSides = fixedSides
	}
	var res core.Result
	var err error
	if opts.Candidates > 0 {
		res, err = core.PartitionCandidates(sub, opts.Candidates, co)
	} else {
		res, err = core.Partition(sub, co)
	}
	if err != nil {
		return nil, partition.Metrics{}, err
	}
	sides := make([]partition.Side, sub.NumModules())
	for i := range sides {
		sides[i] = res.Partition.Side(i)
	}
	return sides, res.Metrics, nil
}

// flipFixed mirrors a pin vector across the cut (U pins become W pins).
func flipFixed(fixedSides []int8) []int8 {
	flipped := make([]int8, len(fixedSides))
	for i, s := range fixedSides {
		switch s {
		case 0:
			flipped[i] = 1
		case 1:
			flipped[i] = 0
		default:
			flipped[i] = -1
		}
	}
	return flipped
}

// fallbackSides builds the deterministic window-feasible split used when
// the sweep cannot: pinned modules keep their group, and free modules
// fill the left group in index order up to the proportional target
// clamped into the window.
func fallbackSides(nSub int, fixedSides []int8, lo, hi, kL, kR int) []partition.Side {
	sides := make([]partition.Side, nSub)
	target := nSub * kL / (kL + kR)
	if target < lo {
		target = lo
	}
	if target > hi {
		target = hi
	}
	szU := 0
	for v := range sides {
		if fixedSides != nil && fixedSides[v] == 0 {
			sides[v] = partition.U
			szU++
		} else {
			sides[v] = partition.W
		}
	}
	for v := 0; v < nSub && szU < target; v++ {
		if fixedSides == nil || fixedSides[v] < 0 {
			if sides[v] == partition.W {
				sides[v] = partition.U
				szU++
			}
		}
	}
	return sides
}

// repairWindow moves free modules across the cut — best FM gain first,
// lowest index breaking ties — until the U side lands inside [lo, hi].
// Feasible windows always leave enough free modules to finish (the
// splitGroup window math guarantees it); running out means the caller
// violated the contract.
func repairWindow(sub *hypergraph.Hypergraph, sides []partition.Side, fixedSides []int8, szU, lo, hi int) error {
	p := partition.FromSides(sides) // shares the slice: moves land in sides
	c := partition.NewCounter(sub, p)
	free := func(v int) bool { return fixedSides == nil || fixedSides[v] < 0 }
	moveBest := func(from partition.Side) error {
		best, bestGain := -1, 0
		for v := 0; v < len(sides); v++ {
			if sides[v] != from || !free(v) {
				continue
			}
			if g := c.Gain(v); best < 0 || g > bestGain {
				best, bestGain = v, g
			}
		}
		if best < 0 {
			return errors.New("multiway: balance repair ran out of free modules")
		}
		c.Move(best)
		return nil
	}
	for ; szU < lo; szU++ {
		if err := moveBest(partition.W); err != nil {
			return err
		}
	}
	for ; szU > hi; szU-- {
		if err := moveBest(partition.U); err != nil {
			return err
		}
	}
	return nil
}
