package place

import (
	"math"
	"math/rand"
	"testing"

	"igpart/internal/hypergraph"
	"igpart/internal/netmodel"
)

// chain builds a netlist whose clique graph is a path: 2-pin nets joining
// consecutive modules.
func chain(n int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder()
	for i := 0; i < n-1; i++ {
		b.AddNet(i, i+1)
	}
	return b.Build()
}

func TestHall1DPathOrder(t *testing.T) {
	h := chain(30)
	p, lam, err := Hall1D(h)
	if err != nil {
		t.Fatal(err)
	}
	// The Fiedler vector of a path is monotone: the 1-D placement recovers
	// the chain order (up to reflection).
	asc, desc := true, true
	for i := 1; i < 30; i++ {
		if p.X[i] < p.X[i-1] {
			asc = false
		}
		if p.X[i] > p.X[i-1] {
			desc = false
		}
	}
	if !asc && !desc {
		t.Error("1-D placement does not order the chain")
	}
	// Hall's theorem: the objective value at the optimum equals λ₂.
	g := netmodel.CliqueGraph(h, 0)
	z := QuadraticWirelength(g, p)
	if math.Abs(z-lam) > 1e-6*(1+lam) {
		t.Errorf("z = %v, λ2 = %v (must be equal at the optimum)", z, lam)
	}
}

func TestHall1DBeatsRandomPlacement(t *testing.T) {
	h := chain(40)
	g := netmodel.CliqueGraph(h, 0)
	p, _, err := Hall1D(h)
	if err != nil {
		t.Fatal(err)
	}
	zSpectral := QuadraticWirelength(g, p)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		x := make([]float64, h.NumModules())
		norm := 0.0
		for i := range x {
			x[i] = rng.NormFloat64()
			norm += x[i] * x[i]
		}
		// Normalize and center like the spectral solution.
		mean := 0.0
		for _, v := range x {
			mean += v
		}
		mean /= float64(len(x))
		norm = 0
		for i := range x {
			x[i] -= mean
			norm += x[i] * x[i]
		}
		norm = math.Sqrt(norm)
		for i := range x {
			x[i] /= norm
		}
		if z := QuadraticWirelength(g, Placement{X: x}); z < zSpectral {
			t.Fatalf("random placement %v beat spectral optimum %v", z, zSpectral)
		}
	}
}

// grid builds a netlist whose clique graph is a g×g grid.
func grid(g int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder()
	id := func(r, c int) int { return r*g + c }
	for r := 0; r < g; r++ {
		for c := 0; c < g; c++ {
			if c+1 < g {
				b.AddNet(id(r, c), id(r, c+1))
			}
			if r+1 < g {
				b.AddNet(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}

func TestHall2DGrid(t *testing.T) {
	g := 8
	h := grid(g)
	p, lams, err := Hall2D(h)
	if err != nil {
		t.Fatal(err)
	}
	if lams[0] <= 0 || lams[1] < lams[0]-1e-9 {
		t.Errorf("eigenvalues out of order: %v", lams)
	}
	// The 2-D embedding of a grid must spread corners apart: opposite
	// corners farther than adjacent modules on average.
	d := func(a, b int) float64 {
		return math.Hypot(p.X[a]-p.X[b], p.Y[a]-p.Y[b])
	}
	corner := d(0, g*g-1)
	adjacent := d(0, 1)
	if corner <= adjacent {
		t.Errorf("corner distance %v not larger than adjacent %v", corner, adjacent)
	}
}

func TestNetsAsPointsCentroid(t *testing.T) {
	h := chain(20)
	nets, modules, err := NetsAsPoints2D(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(nets.X) != h.NumNets() || len(modules.X) != h.NumModules() {
		t.Fatal("wrong placement sizes")
	}
	// Module 1 belongs to nets 0 and 1; it must sit at their midpoint.
	wantX := (nets.X[0] + nets.X[1]) / 2
	wantY := (nets.Y[0] + nets.Y[1]) / 2
	if math.Abs(modules.X[1]-wantX) > 1e-12 || math.Abs(modules.Y[1]-wantY) > 1e-12 {
		t.Errorf("module 1 not at centroid: (%v,%v) want (%v,%v)",
			modules.X[1], modules.Y[1], wantX, wantY)
	}
}

func TestHPWL(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddNet(0, 1, 2)
	b.AddNet(3) // singleton: no wirelength
	h := b.Build()
	p := Placement{X: []float64{0, 1, 3, 9}, Y: []float64{0, 2, 1, 9}}
	// Net 0: x span 3, y span 2 -> 5.
	if got := HPWL(h, p); math.Abs(got-5) > 1e-12 {
		t.Errorf("HPWL = %v, want 5", got)
	}
	one := Placement{X: []float64{0, 1, 3, 9}}
	if got := HPWL(h, one); math.Abs(got-3) > 1e-12 {
		t.Errorf("1-D HPWL = %v, want 3", got)
	}
}

func TestPlaceErrors(t *testing.T) {
	small := hypergraph.NewBuilder()
	small.AddNet(0)
	h := small.Build()
	if _, _, err := Hall1D(h); err == nil {
		t.Error("Hall1D accepted 1 module")
	}
	if _, _, err := Hall2D(h); err == nil {
		t.Error("Hall2D accepted 1 module")
	}
	if _, _, err := NetsAsPoints2D(h); err == nil {
		t.Error("NetsAsPoints2D accepted 1 net")
	}
}
