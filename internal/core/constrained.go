// Constrained completion support: balance windows and fixed (pinned)
// modules threaded through the König completion, the substrate the k-way
// engine in internal/multiway builds on.
//
// A Balance window restricts which completions a sweep may return by the
// number of modules on side U; FixedSides pins chosen modules to a side
// before Phase I runs, so a pinned module pre-assigns its nets' sides —
// winner nets color only the free modules around it, and the pin can
// never be overturned by Phase II. Both options default to nil, and the
// nil path executes the paper's engine unchanged: every structure here is
// only consulted behind a nil check, keeping the unconstrained sweep
// bit-identical.
//
// When neither bulk placement of V_N lands inside the window, the
// completer falls back to a balanced completion: V_N is ordered by net
// affinity to the already-colored sides and split at whichever feasible
// prefix length scores better. Note the Theorem 5 matching bound applies
// to the bulk completions only — a balanced completion may cut more than
// |MM(B)| nets, trading the bound for the balance contract.
package core

import (
	"errors"
	"fmt"
	"sort"

	"igpart/internal/partition"
)

// Balance is a closed window [MinU, MaxU] on the number of modules a
// completion may place on side U. The sweep only returns completions
// inside the window; splits that cannot reach it count as infeasible.
type Balance struct {
	MinU int
	MaxU int
}

// ErrNoFeasibleCompletion reports that no swept split admitted a proper
// completion under the active balance window / fixed-side pins. Callers
// with a repair strategy (the k-way driver) detect it with errors.Is.
var ErrNoFeasibleCompletion = errors.New("core: no completion satisfies the balance/fixed constraints")

// constraints is the resolved, validated form of Options.Balance and
// Options.FixedSides that the sweep machinery threads to each shard. A
// nil *constraints means the unconstrained paper engine.
type constraints struct {
	bal    *Balance
	fixed  []uint8 // completer coloring per module: 0 free, 1 side U, 2 side W
	fixedU int
	fixedW int
}

// newConstraints validates and resolves the constraint options. Both nil
// yields a nil constraints — the unconstrained engine.
func newConstraints(opts Options, n int) (*constraints, error) {
	if opts.Balance == nil && opts.FixedSides == nil {
		return nil, nil
	}
	c := &constraints{}
	if opts.FixedSides != nil {
		if len(opts.FixedSides) != n {
			return nil, fmt.Errorf("core: FixedSides has %d entries, want %d", len(opts.FixedSides), n)
		}
		c.fixed = make([]uint8, n)
		for v, s := range opts.FixedSides {
			switch s {
			case -1:
			case 0:
				c.fixed[v] = 1
				c.fixedU++
			case 1:
				c.fixed[v] = 2
				c.fixedW++
			default:
				return nil, fmt.Errorf("core: FixedSides[%d] = %d, want -1, 0, or 1", v, s)
			}
		}
	}
	if opts.Balance != nil {
		b := *opts.Balance // private copy: the window below gets clamped
		if b.MinU < 1 {
			b.MinU = 1
		}
		if b.MaxU > n-1 {
			b.MaxU = n - 1
		}
		if b.MinU > b.MaxU {
			return nil, fmt.Errorf("core: balance window [%d,%d] is empty for %d modules",
				opts.Balance.MinU, opts.Balance.MaxU, n)
		}
		if b.MaxU < c.fixedU || n-b.MinU < c.fixedW {
			return nil, fmt.Errorf("core: balance window [%d,%d] excludes the %d+%d pinned modules",
				b.MinU, b.MaxU, c.fixedU, c.fixedW)
		}
		c.bal = &b
	}
	return c, nil
}

// window returns the active SizeU window, defaulting to the proper-
// bipartition range when no balance budget is set.
func (c *constraints) window(n int) (lo, hi int) {
	if c.bal != nil {
		return c.bal.MinU, c.bal.MaxU
	}
	return 1, n - 1
}

// balanceRankWindow maps a module-count balance window onto sweep ranks.
// Rank r moves the first r nets of the ordering to the R side, and on
// real orderings the completed U side shrinks roughly in proportion — but
// the completion, not the rank, fixes the module sizes, so this mapping
// is heuristic pruning only: it keeps a margin of a quarter window plus
// 1/16 of the ordering on both ends, and the per-completion balance
// filter remains the ground truth. Degenerate inputs fall back to the
// full range.
func balanceRankWindow(bal *Balance, n, nSplits int) (lo, hi int) {
	if bal == nil || n <= 0 {
		return 1, nSplits
	}
	lo = nSplits * (n - bal.MaxU) / n
	hi = (nSplits*(n-bal.MinU) + n - 1) / n
	margin := (hi-lo)/4 + nSplits/16 + 1
	lo -= margin
	hi += margin
	if lo < 1 {
		lo = 1
	}
	if hi > nSplits {
		hi = nSplits
	}
	if lo > hi {
		return 1, nSplits
	}
	return lo, hi
}

// evaluateConstrained is the constrained counterpart of evaluate: it
// reads the kept coloring — winners around the pinned modules — and the
// kept cut counts to score both bulk V_N placements against the balance
// window, and when neither lands inside it falls back to the
// affinity-ordered balanced completion — V_N sorted by net affinity to the
// colored sides, split at the feasible prefix length that scores better.
// The chosen completion is remembered in balX/balSide for
// materializeConstrained. ok is false when the window is unreachable at
// this split.
func (c *completer) evaluateConstrained() (partition.Metrics, bool) {
	nU := c.cons.fixedU + c.nU // c.nU and c.nW count free modules only
	nW := c.cons.fixedW + c.nW
	n := c.h.NumModules()
	nN := n - nU - nW
	lo, hi := c.cons.window(n)
	cutToU, cutToW := c.cutToU, c.cutToW

	metU := partition.Metrics{ // V_N joins U
		CutNets: cutToU, SizeU: nU + nN, SizeW: nW,
		RatioCut: partition.RatioCutFrom(cutToU, nU+nN, nW),
	}
	metW := partition.Metrics{ // V_N joins W
		CutNets: cutToW, SizeU: nU, SizeW: nW + nN,
		RatioCut: partition.RatioCutFrom(cutToW, nU, nW+nN),
	}
	okU := metU.SizeW > 0 && lo <= metU.SizeU && metU.SizeU <= hi
	okW := metW.SizeU > 0 && lo <= metW.SizeU && metW.SizeU <= hi
	c.balX = -1
	switch {
	case okU && (!okW || !better(metW, metU)): // ties go to the U option
		c.balSide = sideU
		return metU, true
	case okW:
		c.balSide = sideW
		return metW, true
	}

	// Balanced completion: the feasible prefix lengths x (V_N modules sent
	// to U) that land SizeU = nU+x inside the window. Both bulk extremes
	// were just rejected, so any feasible x is a genuine split of V_N.
	xlo, xhi := lo-nU, hi-nU
	if xlo < 0 {
		xlo = 0
	}
	if xhi > nN {
		xhi = nN
	}
	if xlo > xhi || nN == 0 {
		return partition.Metrics{}, false
	}
	c.affinities()
	c.sortVNByAffinity()
	x := xlo
	met := partition.Metrics{CutNets: c.vnCut(xlo), SizeU: nU + xlo, SizeW: nW + nN - xlo}
	met.RatioCut = partition.RatioCutFrom(met.CutNets, met.SizeU, met.SizeW)
	if xhi != xlo {
		alt := partition.Metrics{CutNets: c.vnCut(xhi), SizeU: nU + xhi, SizeW: nW + nN - xhi}
		alt.RatioCut = partition.RatioCutFrom(alt.CutNets, alt.SizeU, alt.SizeW)
		if !better(met, alt) { // ties go to the larger U side, as above
			met = alt
			x = xhi
		}
	}
	if met.SizeU == 0 || met.SizeW == 0 {
		return partition.Metrics{}, false
	}
	c.balX = x
	return met, true
}

// materializeConstrained builds the partition for the completion chosen
// by the last evaluateConstrained call. Must be called before the next
// evaluate on this completer.
func (c *completer) materializeConstrained() *partition.Bipartition {
	sides := make([]partition.Side, c.h.NumModules())
	for v := range sides {
		switch c.col[v] {
		case 1:
			sides[v] = sideU
		case 2:
			sides[v] = sideW
		default:
			if c.balX < 0 {
				sides[v] = c.balSide
			} else if int(c.vnPos[v]) < c.balX {
				sides[v] = sideU
			} else {
				sides[v] = sideW
			}
		}
	}
	return partition.FromSides(sides)
}

// affinities collects V_N and, for each of its modules, the number of its
// nets that hold a U pin (affU) and a W pin (affW) under the kept pin
// counts — one pass over V_N's pins.
func (c *completer) affinities() {
	c.vn = c.vn[:0]
	for v, col := range c.col {
		if col != 0 {
			continue
		}
		c.vn = append(c.vn, v)
		var au, aw int32
		for _, e := range c.h.Nets(v) {
			if c.pinU[e] > 0 {
				au++
			}
			if c.pinW[e] > 0 {
				aw++
			}
		}
		c.affU[v], c.affW[v] = au, aw
	}
}

// sortVNByAffinity orders c.vn by descending affinity to side U
// (affU−affW), module index breaking ties, and records each module's
// position in c.vnPos for materialization.
func (c *completer) sortVNByAffinity() {
	sort.SliceStable(c.vn, func(a, b int) bool {
		va, vb := c.vn[a], c.vn[b]
		da := c.affU[va] - c.affW[va]
		db := c.affU[vb] - c.affW[vb]
		if da != db {
			return da > db
		}
		return va < vb
	})
	for i, v := range c.vn {
		c.vnPos[v] = int32(i)
	}
}

// vnCut counts the nets cut when the first x modules of the sorted V_N
// order join side U and the rest join W, on top of the current winner
// coloring. One pass over the pins.
func (c *completer) vnCut(x int) int {
	cut := 0
	for e := 0; e < c.h.NumNets(); e++ {
		pins := c.h.Pins(e)
		if len(pins) < 2 {
			continue
		}
		var hasU, hasW bool
		for _, v := range pins {
			switch c.col[v] {
			case 1:
				hasU = true
			case 2:
				hasW = true
			default:
				if int(c.vnPos[v]) < x {
					hasU = true
				} else {
					hasW = true
				}
			}
			if hasU && hasW {
				break
			}
		}
		if hasU && hasW {
			cut++
		}
	}
	return cut
}
