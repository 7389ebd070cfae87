// Package kl implements the Kernighan–Lin graph bisection heuristic on the
// clique-model graph of a netlist. KL is the ancestor of the iterative
// methods the paper discusses (Section 1.1) and serves as historical
// baseline context; it optimizes weighted edge cut on the derived graph,
// not hypergraph net cut.
package kl

import (
	"errors"
	"math"
	"math/rand"

	"igpart/internal/hypergraph"
	"igpart/internal/netmodel"
	"igpart/internal/partition"
	"igpart/internal/sparse"
)

// Options configures a KL run.
type Options struct {
	// Seed seeds the random initial bisection.
	Seed int64
	// Starts is the number of random restarts. Default 1.
	Starts int
}

const (
	// maxPasses bounds the improvement passes of a start.
	maxPasses = 8
	// candidates is how many top-D vertices per side are examined when
	// selecting each swap pair (the classical speedup).
	candidates = 8
)

func (o Options) withDefaults() Options {
	if o.Starts <= 0 {
		o.Starts = 1
	}
	return o
}

// Result reports the best bisection found.
type Result struct {
	Partition *partition.Bipartition
	// Metrics evaluates the partition on the original hypergraph (net cut),
	// for comparability with the other algorithms.
	Metrics partition.Metrics
	// EdgeCut is the weighted clique-model edge cut KL actually optimized.
	EdgeCut float64
}

// Bisect runs Kernighan–Lin on the clique model of h. The module count must
// be even for a perfect bisection; an odd count leaves one side larger by
// one.
func Bisect(h *hypergraph.Hypergraph, opts Options) (Result, error) {
	n := h.NumModules()
	if n < 2 {
		return Result{}, errors.New("kl: need at least 2 modules")
	}
	opts = opts.withDefaults()
	g := netmodel.CliqueGraph(h, 0)
	rng := rand.New(rand.NewSource(opts.Seed))

	var best Result
	bestCut := math.Inf(1)
	for s := 0; s < opts.Starts; s++ {
		side := randomBisection(n, rng)
		cut := runKL(g, side)
		if cut < bestCut {
			bestCut = cut
			sides := make([]partition.Side, n)
			for v, inU := range side {
				if !inU {
					sides[v] = partition.W
				}
			}
			p := partition.FromSides(sides)
			best = Result{Partition: p, Metrics: partition.Evaluate(h, p), EdgeCut: cut}
		}
	}
	return best, nil
}

// randomBisection returns a random perfectly balanced side assignment.
func randomBisection(n int, rng *rand.Rand) []bool {
	side := make([]bool, n)
	perm := rng.Perm(n)
	for i, v := range perm {
		side[v] = i < (n+1)/2
	}
	return side
}

// runKL improves side in place and returns the final weighted edge cut.
func runKL(g *sparse.SymCSR, side []bool) float64 {
	n := g.N()
	d := make([]float64, n)
	locked := make([]bool, n)
	for pass := 0; pass < maxPasses; pass++ {
		computeD(g, side, d)
		for i := range locked {
			locked[i] = false
		}
		type swap struct {
			a, b int
			gain float64
		}
		var swaps []swap
		total := 0.0
		bestPrefix, bestTotal := 0, 0.0
		for k := 0; k < n/2; k++ {
			a, b, gain := pickPair(g, side, d, locked)
			if a < 0 {
				break
			}
			// Tentatively swap a and b, updating D values.
			applySwap(g, side, d, a, b)
			locked[a], locked[b] = true, true
			swaps = append(swaps, swap{a, b, gain})
			total += gain
			if total > bestTotal+1e-12 {
				bestTotal = total
				bestPrefix = len(swaps)
			}
		}
		// Roll back swaps beyond the best prefix.
		for i := len(swaps) - 1; i >= bestPrefix; i-- {
			s := swaps[i]
			side[s.a] = !side[s.a]
			side[s.b] = !side[s.b]
		}
		if bestPrefix == 0 {
			break
		}
	}
	return edgeCut(g, side)
}

// computeD fills d[v] = external − internal connection cost of v.
func computeD(g *sparse.SymCSR, side []bool, d []float64) {
	for v := 0; v < g.N(); v++ {
		cols, vals := g.Row(v)
		ext, int_ := 0.0, 0.0
		for k, u := range cols {
			if u == v {
				continue
			}
			if side[u] == side[v] {
				int_ += vals[k]
			} else {
				ext += vals[k]
			}
		}
		d[v] = ext - int_
	}
}

// pickPair selects the best swap among the top-candidates D values on each
// side. Returns (−1, −1, 0) when no unlocked pair remains.
func pickPair(g *sparse.SymCSR, side []bool, d []float64, locked []bool) (int, int, float64) {
	topU := topCandidates(d, side, locked, true, candidates)
	topW := topCandidates(d, side, locked, false, candidates)
	if len(topU) == 0 || len(topW) == 0 {
		return -1, -1, 0
	}
	bestA, bestB := -1, -1
	bestGain := math.Inf(-1)
	for _, a := range topU {
		for _, b := range topW {
			gain := d[a] + d[b] - 2*g.At(a, b)
			if gain > bestGain {
				bestGain, bestA, bestB = gain, a, b
			}
		}
	}
	return bestA, bestB, bestGain
}

// topCandidates returns up to cand unlocked vertices of the given side with
// the largest D values.
func topCandidates(d []float64, side, locked []bool, wantU bool, cand int) []int {
	var top []int
	for v := range d {
		if locked[v] || side[v] != wantU {
			continue
		}
		// Insertion into a small sorted list.
		pos := len(top)
		for pos > 0 && d[top[pos-1]] < d[v] {
			pos--
		}
		if pos < cand {
			top = append(top, 0)
			copy(top[pos+1:], top[pos:])
			top[pos] = v
			if len(top) > cand {
				top = top[:cand]
			}
		}
	}
	return top
}

// applySwap swaps a and b across the cut and updates D values of all
// vertices per the KL update rule.
func applySwap(g *sparse.SymCSR, side []bool, d []float64, a, b int) {
	for _, v := range []int{a, b} {
		cols, vals := g.Row(v)
		for k, u := range cols {
			if u == v {
				continue
			}
			if side[u] == side[v] {
				d[u] += 2 * vals[k] // u loses an internal edge partner
			} else {
				d[u] -= 2 * vals[k]
			}
		}
		side[v] = !side[v]
	}
	// a and b are locked afterwards; their D values are not reused.
}

// edgeCut returns the weighted cut of the side assignment.
func edgeCut(g *sparse.SymCSR, side []bool) float64 {
	cut := 0.0
	for v := 0; v < g.N(); v++ {
		cols, vals := g.Row(v)
		for k, u := range cols {
			if u > v && side[u] != side[v] {
				cut += vals[k]
			}
		}
	}
	return cut
}
