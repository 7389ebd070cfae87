// Package igvote implements IG-Vote (the EIG1-IG algorithm of Hagen–Kahng,
// Appendix B of the paper): modules migrate between partitions when enough
// of their incident net weight — each net voting 1/|s| on its modules — has
// crossed, as nets are shifted one by one in intersection-graph eigenvector
// order. Both sweep directions are tried and the best ratio cut over all
// intermediate partitions is returned. IG-Match improves on IG-Vote by an
// average of 7% in the paper (Table 3).
package igvote

import (
	"errors"
	"fmt"
	"math"

	"igpart/internal/core"
	"igpart/internal/eigen"
	"igpart/internal/hypergraph"
	"igpart/internal/netmodel"
	"igpart/internal/partition"
)

// Options configures an IG-Vote run. The intersection graph and its
// Fiedler vector are built with the default options.
type Options struct {
	// MoveThreshold is the fraction of a module's total net weight that
	// must shift before the module follows (the paper uses 1/2).
	// Default 0.5.
	MoveThreshold float64
}

// Result is the outcome of an IG-Vote run.
type Result struct {
	Partition *partition.Bipartition
	Metrics   partition.Metrics
	// NetOrder is the eigenvector-sorted net ordering.
	NetOrder []int
	// Lambda2 is the second-smallest eigenvalue of Q'(G').
	Lambda2 float64
	// Forward reports whether the winning partition came from the forward
	// sweep (nets moved in ascending eigenvector order) or the backward one.
	Forward bool
}

// Partition runs IG-Vote on the netlist h.
func Partition(h *hypergraph.Hypergraph, opts Options) (Result, error) {
	if h.NumNets() < 2 || h.NumModules() < 2 {
		return Result{}, errors.New("igvote: need at least 2 nets and 2 modules")
	}
	if opts.MoveThreshold <= 0 {
		opts.MoveThreshold = 0.5
	}
	q := netmodel.IGLaplacian(h, netmodel.IGOptions{})
	fied, err := eigen.Fiedler(q, eigen.Options{})
	if err != nil {
		return Result{}, fmt.Errorf("igvote: eigensolve failed: %w", err)
	}
	order := core.SortNetsByVector(fied.Vector)

	fwdP, fwdM := Sweep(h, order, opts.MoveThreshold)
	rev := make([]int, len(order))
	for i, e := range order {
		rev[len(order)-1-i] = e
	}
	bwdP, bwdM := Sweep(h, rev, opts.MoveThreshold)

	res := Result{NetOrder: order, Lambda2: fied.Lambda2}
	switch {
	case fwdP == nil && bwdP == nil:
		return Result{}, errors.New("igvote: no proper partition found in either sweep")
	case bwdP == nil || (fwdP != nil && fwdM.RatioCut <= bwdM.RatioCut):
		res.Partition, res.Metrics, res.Forward = fwdP, fwdM, true
	default:
		res.Partition, res.Metrics = bwdP, bwdM
	}
	return res, nil
}

// Sweep performs one direction of the IG-Vote pass: all modules start on
// side U; nets are shifted to W in the given order, each adding 1/|s| vote
// weight to its modules; a module crosses when its accumulated weight
// reaches threshold·(total weight). The best ratio-cut snapshot over all
// net shifts is returned (nil if every snapshot had an empty side).
func Sweep(h *hypergraph.Hypergraph, order []int, threshold float64) (*partition.Bipartition, partition.Metrics) {
	n := h.NumModules()
	w := make([]float64, n) // total incident net weight per module
	for e := 0; e < h.NumNets(); e++ {
		vote := 1 / float64(h.NetSize(e))
		for _, v := range h.Pins(e) {
			w[v] += vote
		}
	}
	z := make([]float64, n) // moved net weight per module
	p := partition.New(n)   // all on U
	c := partition.NewCounter(h, p)

	bestRatio := math.Inf(1)
	var bestSides []partition.Side
	var bestMet partition.Metrics
	onW := 0
	for _, e := range order {
		if h.NetSize(e) == 0 {
			continue
		}
		vote := 1 / float64(h.NetSize(e))
		for _, v := range h.Pins(e) {
			z[v] += vote
			if p.Side(v) == partition.U && z[v] >= threshold*w[v] {
				c.Move(v)
				onW++
			}
		}
		if onW == 0 || onW == n {
			continue
		}
		ratio := partition.RatioCutFrom(c.Cut(), n-onW, onW)
		if ratio < bestRatio {
			bestRatio = ratio
			bestSides = append(bestSides[:0], p.Sides()...)
			bestMet = partition.Metrics{
				CutNets:  c.Cut(),
				SizeU:    n - onW,
				SizeW:    onW,
				RatioCut: ratio,
			}
		}
	}
	if bestSides == nil {
		return nil, partition.Metrics{}
	}
	return partition.FromSides(bestSides), bestMet
}
