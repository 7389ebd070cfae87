package portfolio

import (
	"fmt"
	"slices"
	"sort"

	"igpart/internal/core"
	"igpart/internal/hypergraph"
	"igpart/internal/obs"
	"igpart/internal/partition"
)

// DefaultWarmThreshold is the fraction of base nets a delta may touch
// before WarmStart falls back to a cold solve: past it the cached
// Fiedler ordering no longer resembles the perturbed instance's and a
// sweep around the carried-over rank would chase a stale optimum.
const DefaultWarmThreshold = 0.25

// WarmResult is the outcome of WarmStart. The embedded core.Result
// partitions H, the delta'd netlist.
type WarmResult struct {
	core.Result
	// H is the netlist the delta produced — the one Partition and
	// Metrics refer to.
	H *hypergraph.Hypergraph
	// Cold reports that the delta exceeded the perturbation threshold
	// and a full from-scratch solve ran instead of the warm sweep.
	Cold bool
	// TouchedNets is the delta's perturbation size.
	TouchedNets int
}

// WarmStart re-partitions base after applying delta d, reusing the
// previous solve's net ordering instead of re-running the eigensolve:
// surviving nets keep their relative order, added nets slot in at the
// median position of the base nets they share modules with, and one
// sweep visits warmRanks — a dense rank window around the carried-over
// best split plus the evenly spaced candidate ranks of the whole
// ordering (sweep + König completion; the eigensolve is skipped
// entirely). opts configures that sweep (parallelism, recorder,
// context) and the cold core.Partition on the new netlist that runs
// instead when the delta touches more than DefaultWarmThreshold of the
// base nets.
//
// An empty delta reproduces the base result bit for bit: the ordering
// is unchanged, the rank list contains the base best rank, and the
// sweep keeps the earliest best rank, which is the base's.
func WarmStart(base *hypergraph.Hypergraph, baseOrder []int, baseBestRank int, d Delta, opts core.Options) (WarmResult, error) {
	m0 := base.NumNets()
	if len(baseOrder) != m0 {
		return WarmResult{}, fmt.Errorf("portfolio: base order has %d nets, want %d", len(baseOrder), m0)
	}
	if baseBestRank < 1 || baseBestRank > m0-1 {
		return WarmResult{}, fmt.Errorf("portfolio: base best rank %d outside [1,%d]", baseBestRank, m0-1)
	}
	if err := d.Validate(base); err != nil {
		return WarmResult{}, fmt.Errorf("portfolio: invalid delta: %w", err)
	}
	rec := obs.OrNop(opts.Rec)
	h, netMap := d.Apply(base)
	touched := d.TouchedNets()
	res := WarmResult{H: h, TouchedNets: touched}

	if float64(touched) > DefaultWarmThreshold*float64(m0) {
		rec.Metrics().Counter("portfolio.cold_fallback").Add(1)
		cold, err := core.Partition(h, opts)
		if err != nil {
			return WarmResult{}, err
		}
		res.Result = cold
		res.Cold = true
		return res, nil
	}

	order, rank := warmOrder(base, baseOrder, baseBestRank, h, netMap)
	rec.Metrics().Counter("portfolio.warm_start").Add(1)
	warm, err := core.PartitionRanksWithOrder(h, order, warmRanks(h.NumNets(), rank, touched), opts)
	if err != nil {
		return WarmResult{}, err
	}
	res.Result = warm

	// A net removal can disconnect the circuit, putting a zero-cut
	// partition arbitrarily far from the carried-over rank window. The
	// component structure is an O(pins) check, so guard the warm sweep
	// with it; strict improvement only, which keeps the empty-delta path
	// bit-identical.
	if p, met, ok := componentSplit(h); ok && met.RatioCut < res.Metrics.RatioCut {
		res.Partition = p
		res.Metrics = met
		rec.Metrics().Counter("portfolio.component_split").Add(1)
	}
	return res, nil
}

// componentSplit builds the best-balanced zero-cut partition of a
// disconnected netlist by packing whole components onto the lighter
// side (largest first). ok is false when h is connected.
func componentSplit(h *hypergraph.Hypergraph) (*partition.Bipartition, partition.Metrics, bool) {
	comp, n := hypergraph.ConnectedComponents(h)
	if n < 2 {
		return nil, partition.Metrics{}, false
	}
	sizes := make([]int, n)
	for _, c := range comp {
		sizes[c]++
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return sizes[idx[i]] > sizes[idx[j]] })
	sideOf := make([]partition.Side, n)
	nu, nw := 0, 0
	for _, c := range idx {
		if nu <= nw {
			sideOf[c] = partition.U
			nu += sizes[c]
		} else {
			sideOf[c] = partition.W
			nw += sizes[c]
		}
	}
	sides := make([]partition.Side, h.NumModules())
	for v, c := range comp {
		sides[v] = sideOf[c]
	}
	p := partition.FromSides(sides)
	met := partition.Evaluate(h, p)
	if met.SizeU == 0 || met.SizeW == 0 {
		return nil, partition.Metrics{}, false
	}
	return p, met, true
}

// warmRanks is the ascending rank list a warm start sweeps over an
// ordering of m nets: the dense warmWindow around the carried-over rank
// merged with the core.DefaultCandidates evenly spaced ranks of the whole
// ordering. The window assumes the optimum stayed near the carried-over
// rank; the spaced ranks catch an optimum the perturbation relocated, at
// the cost of one matching repair per net walked between them and one
// completion each.
func warmRanks(m, rank, touched int) []int {
	lo, hi := warmWindow(m, rank, touched)
	ranks := core.CandidateRanks(core.DefaultCandidates, m-1)
	for r := lo; r <= hi; r++ {
		ranks = append(ranks, r)
	}
	slices.Sort(ranks)
	return slices.Compact(ranks)
}

// warmWindow returns the dense rank window [rank−w, rank+w], clamped to
// [1, m−1], with w = max(128, 4·touched, m/32): wide enough that small
// deltas cannot push the optimum out of reach, narrow enough that the
// warm sweep beats the full one by a large factor on big instances.
func warmWindow(m, rank, touched int) (lo, hi int) {
	w := max(128, 4*touched, m/32)
	return max(rank-w, 1), min(rank+w, m-1)
}

// warmOrder builds the new net ordering from the cached one. Every
// surviving base net keeps its base rank as a sort key; an added net
// takes the median key of the surviving base nets it shares a module
// with (appended at the end when it has no placed neighbor). It returns
// the ordering and the delta-adjusted best rank: the number of nets
// whose key falls before the base best split boundary.
func warmOrder(base *hypergraph.Hypergraph, baseOrder []int, baseBestRank int, h *hypergraph.Hypergraph, netMap []int) ([]int, int) {
	m0, m := base.NumNets(), h.NumNets()
	pos := make([]int, m0)
	for i, e := range baseOrder {
		pos[e] = i
	}
	// survivingKey[f] is base net f's sort key, or −1 if removed.
	survivingKey := make([]float64, m0)
	for f := range survivingKey {
		survivingKey[f] = -1
	}
	for _, f := range netMap {
		if f >= 0 {
			survivingKey[f] = float64(pos[f])
		}
	}
	key := make([]float64, m)
	var neigh []float64
	for e := 0; e < m; e++ {
		if f := netMap[e]; f >= 0 {
			key[e] = float64(pos[f])
			continue
		}
		neigh = neigh[:0]
		for _, v := range h.Pins(e) {
			if v >= base.NumModules() {
				continue // fresh module, no base incidence
			}
			for _, f := range base.Nets(v) {
				if survivingKey[f] >= 0 {
					neigh = append(neigh, survivingKey[f])
				}
			}
		}
		if len(neigh) == 0 {
			key[e] = float64(m0) // no anchor: append at the end
			continue
		}
		sort.Float64s(neigh)
		key[e] = neigh[len(neigh)/2]
	}
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return key[order[i]] < key[order[j]] })

	// The base best split puts baseOrder[0..r−1] on one side: carry the
	// boundary over as "everything keyed strictly before it".
	boundary := float64(baseBestRank) - 0.5
	rank := 0
	for _, e := range order {
		if key[e] < boundary {
			rank++
		}
	}
	if rank < 1 {
		rank = 1
	}
	if rank > m-1 {
		rank = m - 1
	}
	return order, rank
}
