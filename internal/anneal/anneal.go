// Package anneal implements a simulated-annealing ratio-cut partitioner —
// the stochastic hill-climbing class of Section 1.1 (Kirkpatrick et al.
// [20], Sechen [28]). Moves flip one module across the cut; the Metropolis
// rule accepts uphill moves with probability exp(−Δ/T) under a geometric
// cooling schedule. The best configuration seen is returned, so quality is
// monotone in the sweep budget.
package anneal

import (
	"errors"
	"math"
	"math/rand"

	"igpart/internal/hypergraph"
	"igpart/internal/partition"
)

// Options tunes the annealer. The zero value gives a sensible schedule.
type Options struct {
	// Sweeps is the number of full-circuit move sweeps. Default 60.
	Sweeps int
	// Seed seeds the random walk.
	Seed int64
}

// The cooling schedule: the initial temperature, in units of ratio-cut
// cost relative to the initial configuration, and the geometric cooling
// factor per sweep.
const (
	t0    = 0.3
	alpha = 0.92
)

func (o Options) withDefaults() Options {
	if o.Sweeps <= 0 {
		o.Sweeps = 60
	}
	return o
}

// Result reports the annealing outcome.
type Result struct {
	Partition *partition.Bipartition
	Metrics   partition.Metrics
	// Accepted counts accepted moves (diagnostics).
	Accepted int
}

// RatioCut anneals a ratio-cut bipartition of h.
func RatioCut(h *hypergraph.Hypergraph, opts Options) (Result, error) {
	n := h.NumModules()
	if n < 2 {
		return Result{}, errors.New("anneal: need at least 2 modules")
	}
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))

	p := partition.New(n)
	for v := 0; v < n; v++ {
		if rng.Intn(2) == 1 {
			p.Set(v, partition.W)
		}
	}
	c := partition.NewCounter(h, p)
	sizes := [2]int{}
	for v := 0; v < n; v++ {
		sizes[p.Side(v)]++
	}
	cost := func() float64 {
		return partition.RatioCutFrom(c.Cut(), sizes[0], sizes[1])
	}
	cur := cost()
	if math.IsInf(cur, 1) {
		// All modules on one side; flip one to make the walk startable.
		c.Move(0)
		sizes[0], sizes[1] = sizes[0]-1, sizes[1]+1
		if p.Side(0) == partition.U {
			sizes[0], sizes[1] = sizes[0]+2, sizes[1]-2
		}
		cur = cost()
	}

	best := p.Clone()
	bestCost := cur
	// Temperature is relative to the starting cost so the schedule adapts
	// to instance scale.
	temp := t0 * math.Max(cur, 1e-12)
	accepted := 0
	for sweep := 0; sweep < opts.Sweeps; sweep++ {
		for step := 0; step < n; step++ {
			v := rng.Intn(n)
			from := p.Side(v)
			if sizes[from] <= 1 {
				continue // keep both sides non-empty
			}
			c.Move(v)
			sizes[from]--
			sizes[from.Opposite()]++
			next := cost()
			delta := next - cur
			if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
				cur = next
				accepted++
				if cur < bestCost {
					bestCost = cur
					copy(best.Sides(), p.Sides())
				}
			} else {
				// Reject: undo.
				c.Move(v)
				sizes[from]++
				sizes[from.Opposite()]--
			}
		}
		temp *= alpha
	}
	return Result{
		Partition: best,
		Metrics:   partition.Evaluate(h, best),
		Accepted:  accepted,
	}, nil
}
