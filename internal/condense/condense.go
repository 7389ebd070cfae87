// Package condense implements the hybrid condense-then-partition flow the
// paper's Section 5 cites (Bui et al., Lengauer): greedily merge strongly
// connected module pairs to shrink the netlist, partition the coarse
// circuit spectrally, project the result back, and polish with FM. The
// cluster-condensation ablation (experiment A5) measures the speed/quality
// tradeoff against the direct solve.
package condense

import (
	"errors"
	"sort"

	"igpart/internal/core"
	"igpart/internal/fm"
	"igpart/internal/hypergraph"
	"igpart/internal/partition"
)

// Options configures the condense-partition-refine pipeline.
type Options struct {
	// TargetRatio stops coarsening once the cluster count drops below
	// TargetRatio·NumModules. Default 0.35.
	TargetRatio float64
	// Levels bounds the number of coarsening rounds. Default 3.
	Levels int
	// SkipRefine disables the FM polish (for ablation). The coarse level
	// is solved by IG-Match and the polish is FM, both at their defaults.
	SkipRefine bool
}

func (o Options) withDefaults() Options {
	if o.TargetRatio <= 0 {
		o.TargetRatio = 0.35
	}
	if o.Levels <= 0 {
		o.Levels = 3
	}
	return o
}

// Result reports the pipeline outcome.
type Result struct {
	Partition *partition.Bipartition
	Metrics   partition.Metrics
	// CoarseModules is the module count of the coarsest level actually
	// partitioned.
	CoarseModules int
	// Levels is the number of coarsening rounds performed.
	Levels int
}

// Partition runs the full condense → IG-Match → project → refine pipeline.
func Partition(h *hypergraph.Hypergraph, opts Options) (Result, error) {
	if h.NumModules() < 4 {
		return Result{}, errors.New("condense: circuit too small to condense")
	}
	opts = opts.withDefaults()

	type level struct {
		h    *hypergraph.Hypergraph
		map_ []int // fine module -> coarse cluster
	}
	var stack []level
	cur := h
	target := int(opts.TargetRatio * float64(h.NumModules()))
	rounds := 0
	for rounds < opts.Levels && cur.NumModules() > target && cur.NumModules() > 8 {
		cmap, k := MatchClusters(cur)
		if k >= cur.NumModules() {
			break // no merges possible
		}
		coarse, err := hypergraph.Contract(cur, cmap, k)
		if err != nil {
			return Result{}, err
		}
		stack = append(stack, level{h: cur, map_: cmap})
		cur = coarse
		rounds++
	}

	res, err := core.Partition(cur, core.Options{})
	if err != nil {
		return Result{}, err
	}
	p := res.Partition
	coarseModules := cur.NumModules()

	// Project back through the levels.
	for i := len(stack) - 1; i >= 0; i-- {
		lv := stack[i]
		fine := partition.New(lv.h.NumModules())
		for v := 0; v < lv.h.NumModules(); v++ {
			fine.Set(v, p.Side(lv.map_[v]))
		}
		p = fine
	}

	if !opts.SkipRefine {
		if _, _, err := fm.RefinePartition(h, p, fm.Options{}); err != nil {
			return Result{}, err
		}
	}
	return Result{
		Partition:     p,
		Metrics:       partition.Evaluate(h, p),
		CoarseModules: coarseModules,
		Levels:        rounds,
	}, nil
}

// MatchClusters performs one round of greedy heavy-connectivity matching:
// module pairs sharing the most (size-discounted) net weight are merged
// first; unmatched modules survive as singletons. It returns the cluster
// map and the cluster count.
func MatchClusters(h *hypergraph.Hypergraph) ([]int, int) {
	// Connectivity between adjacent modules: Σ over shared nets of
	// 1/(|net|−1) — the clique-model weight restricted to neighbors.
	weight := map[[2]int]float64{}
	for e := 0; e < h.NumNets(); e++ {
		pins := h.Pins(e)
		k := len(pins)
		if k < 2 || k > 16 {
			continue // huge nets say little about pairwise affinity
		}
		w := 1 / float64(k-1)
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				weight[[2]int{pins[i], pins[j]}] += w
			}
		}
	}
	pairs := make([]WeightedPair, 0, len(weight))
	for key, w := range weight {
		pairs = append(pairs, WeightedPair{A: key[0], B: key[1], W: w})
	}
	return MatchByWeight(h.NumModules(), pairs)
}

// WeightedPair is an affinity edge between two items for MatchByWeight.
type WeightedPair struct {
	A, B int
	W    float64
}

// MatchByWeight greedily computes a maximal matching of the items 0..n−1
// by descending pair weight (ties broken by ascending indices, so the
// result is deterministic regardless of input order): the heaviest pair
// whose endpoints are both still free is merged into one group; unmatched
// items survive as singleton groups. It returns the item→group map (dense
// group indices) and the group count. This is the heavy-edge matching
// shared by module condensation (MatchClusters) and the multilevel
// engine's net coarsening; pairs is reordered in place.
func MatchByWeight(n int, pairs []WeightedPair) ([]int, int) {
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].W != pairs[b].W {
			return pairs[a].W > pairs[b].W
		}
		if pairs[a].A != pairs[b].A {
			return pairs[a].A < pairs[b].A
		}
		return pairs[a].B < pairs[b].B
	})
	gmap := make([]int, n)
	for i := range gmap {
		gmap[i] = -1
	}
	next := 0
	for _, pr := range pairs {
		if gmap[pr.A] < 0 && gmap[pr.B] < 0 && pr.A != pr.B {
			gmap[pr.A] = next
			gmap[pr.B] = next
			next++
		}
	}
	for v := range gmap {
		if gmap[v] < 0 {
			gmap[v] = next
			next++
		}
	}
	return gmap, next
}
