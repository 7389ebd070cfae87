// Package place implements the spectral placement formulations surrounding
// the paper: Hall's r-dimensional quadratic placement (Appendix A — the
// prototypical eigenvector formulation the partitioning work builds on),
// and the "nets-as-points" placement of Pillage–Rohrer cited in Section
// 2.2, which embeds the intersection graph and drops each module at the
// centroid of its nets. Every placement solves its Laplacian (the full
// clique model, or the intersection graph) with the default eigensolver
// options.
package place

import (
	"errors"
	"math"

	"igpart/internal/eigen"
	"igpart/internal/hypergraph"
	"igpart/internal/netmodel"
	"igpart/internal/sparse"
)

// Placement holds coordinates for a set of points (modules or nets);
// Y is nil for one-dimensional placements.
type Placement struct {
	X []float64
	Y []float64
}

// Hall1D computes Hall's one-dimensional quadratic placement of the
// modules: the second eigenvector of Q = D − A minimizes
// z = ½ Σ A_ij (x_i − x_j)² over unit-norm x orthogonal to the trivial
// constant solution, and z equals λ₂ at the optimum. Returns the placement
// and λ₂.
func Hall1D(h *hypergraph.Hypergraph) (Placement, float64, error) {
	if h.NumModules() < 2 {
		return Placement{}, 0, errors.New("place: need at least 2 modules")
	}
	q := netmodel.ModuleLaplacian(h, 0)
	res, err := eigen.Fiedler(q, eigen.Options{})
	if err != nil {
		return Placement{}, 0, err
	}
	return Placement{X: res.Vector}, res.Lambda2, nil
}

// Hall2D computes Hall's two-dimensional placement from eigenvectors 2 and
// 3 of the module Laplacian. Returns the placement and (λ₂, λ₃).
func Hall2D(h *hypergraph.Hypergraph) (Placement, [2]float64, error) {
	if h.NumModules() < 3 {
		return Placement{}, [2]float64{}, errors.New("place: need at least 3 modules")
	}
	q := netmodel.ModuleLaplacian(h, 0)
	vals, vecs, err := eigen.SmallestK(q, 3, eigen.Options{})
	if err != nil {
		return Placement{}, [2]float64{}, err
	}
	return Placement{X: vecs[1], Y: vecs[2]}, [2]float64{vals[1], vals[2]}, nil
}

// NetsAsPoints2D embeds the intersection graph in 2-D (eigenvectors 2 and
// 3 of Q') and places each module at the centroid of the nets containing
// it — the Pillage–Rohrer construction. Modules on no net are placed at
// the origin. It returns the net placement and the derived module
// placement.
func NetsAsPoints2D(h *hypergraph.Hypergraph) (nets, modules Placement, err error) {
	if h.NumNets() < 3 {
		return Placement{}, Placement{}, errors.New("place: need at least 3 nets")
	}
	q := netmodel.IGLaplacian(h, netmodel.IGOptions{})
	_, vecs, err := eigen.SmallestK(q, 3, eigen.Options{})
	if err != nil {
		return Placement{}, Placement{}, err
	}
	nets = Placement{X: vecs[1], Y: vecs[2]}
	n := h.NumModules()
	modules = Placement{X: make([]float64, n), Y: make([]float64, n)}
	for v := 0; v < n; v++ {
		inc := h.Nets(v)
		if len(inc) == 0 {
			continue
		}
		var sx, sy float64
		for _, e := range inc {
			sx += nets.X[e]
			sy += nets.Y[e]
		}
		modules.X[v] = sx / float64(len(inc))
		modules.Y[v] = sy / float64(len(inc))
	}
	return nets, modules, nil
}

// QuadraticWirelength evaluates Hall's objective
// z = ½ Σ_ij A_ij ((x_i−x_j)² + (y_i−y_j)²) for a placement over the
// weighted graph a.
func QuadraticWirelength(a *sparse.SymCSR, p Placement) float64 {
	z := 0.0
	for i := 0; i < a.N(); i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			if j <= i {
				continue
			}
			dx := p.X[i] - p.X[j]
			z += vals[k] * dx * dx
			if p.Y != nil {
				dy := p.Y[i] - p.Y[j]
				z += vals[k] * dy * dy
			}
		}
	}
	return z
}

// HPWL evaluates the half-perimeter wirelength of a module placement over
// the netlist: Σ over nets of (max−min x) + (max−min y).
func HPWL(h *hypergraph.Hypergraph, p Placement) float64 {
	total := 0.0
	for e := 0; e < h.NumNets(); e++ {
		pins := h.Pins(e)
		if len(pins) < 2 {
			continue
		}
		minX, maxX := math.Inf(1), math.Inf(-1)
		minY, maxY := 0.0, 0.0
		if p.Y != nil {
			minY, maxY = math.Inf(1), math.Inf(-1)
		}
		for _, v := range pins {
			if p.X[v] < minX {
				minX = p.X[v]
			}
			if p.X[v] > maxX {
				maxX = p.X[v]
			}
			if p.Y != nil {
				if p.Y[v] < minY {
					minY = p.Y[v]
				}
				if p.Y[v] > maxY {
					maxY = p.Y[v]
				}
			}
		}
		total += maxX - minX
		if p.Y != nil {
			total += maxY - minY
		}
	}
	return total
}
