package eigen

import (
	"math"
	"math/rand"
	"testing"

	"igpart/internal/obs"
	"igpart/internal/sparse"
)

// ritzCase draws seeded tridiagonal number seed. Most orders are small;
// every 40th case is large (320 down to 315, past the default 300-step
// cycle). A third of the cases draw the diagonal from a four-value set,
// so eigenvalues repeat and the sort must break ties the reference's
// way, and a third zero some subdiagonal entries, splitting the matrix
// into independent blocks (all of them, in a few cases: a diagonal
// matrix).
func ritzCase(seed int64) (d, e []float64) {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(64)
	if seed%40 == 0 {
		n = 320 - int(seed/40)
	}
	d, e = randomTridiagonal(n, seed)
	switch seed % 3 {
	case 1:
		for i := range d {
			d[i] = float64(rng.Intn(4) - 1)
		}
	case 2:
		p := 0.2
		if seed%7 == 0 {
			p = 1
		}
		for i := range e {
			if rng.Float64() < p {
				e[i] = 0
			}
		}
	}
	return d, e
}

// TestRitzTopMatchesSymTridiagonal is the bit-identity property of the
// top-Ritz-pair extraction: on 240 seeded tridiagonals (orders 1…320,
// split blocks, repeated diagonal values) the eigenvalue and every vector
// element must equal, bit for bit, the last eigenvalue and column n−1 of
// the full SymTridiagonal reference, at 1, 2 and 4 workers. Each worker
// count reuses one ritzWork across all cases, so buffer reuse between
// orders is covered too.
func TestRitzTopMatchesSymTridiagonal(t *testing.T) {
	works := map[int]*ritzWork{1: {}, 2: {}, 4: {}}
	for seed := int64(0); seed < 240; seed++ {
		d, e := ritzCase(seed)
		n := len(d)
		vals, z, err := SymTridiagonal(d, e, true)
		if err != nil {
			t.Fatalf("seed %d (n=%d): reference: %v", seed, n, err)
		}
		for _, workers := range []int{1, 2, 4} {
			theta, y, err := works[workers].top(d, e, workers)
			if err != nil {
				t.Fatalf("seed %d (n=%d, workers %d): %v", seed, n, workers, err)
			}
			if math.Float64bits(theta) != math.Float64bits(vals[n-1]) {
				t.Fatalf("seed %d (n=%d, workers %d): θ %x, reference %x", seed, n, workers, theta, vals[n-1])
			}
			if len(y) != n {
				t.Fatalf("seed %d: vector length %d, want %d", seed, len(y), n)
			}
			for k := range y {
				if math.Float64bits(y[k]) != math.Float64bits(z[k][n-1]) {
					t.Fatalf("seed %d (n=%d, workers %d): y[%d] = %x, reference %x", seed, n, workers, k, y[k], z[k][n-1])
				}
			}
		}
	}
}

// TestRitzTopErrors covers the guard rails the reference shares.
func TestRitzTopErrors(t *testing.T) {
	var w ritzWork
	if _, _, err := w.top(nil, nil, 1); err == nil {
		t.Fatal("empty tridiagonal accepted")
	}
	if _, _, err := w.top([]float64{1, 2}, []float64{1, 2}, 1); err == nil {
		t.Fatal("subdiagonal length mismatch accepted")
	}
}

// TestMGSMatchesUnfusedLoop pins the fused Gram–Schmidt kernel to the
// separate Dot/Axpy passes it replaces, bit for bit, including its
// returned last coefficient, over sequence lengths 0…6 and vectors with
// dimension 1…200.
func TestMGSMatchesUnfusedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		vs := make([][]float64, rng.Intn(7))
		for j := range vs {
			vs[j] = make([]float64, n)
			for k := range vs[j] {
				vs[j][k] = rng.NormFloat64()
			}
			if trial%2 == 0 {
				sparse.Normalize(vs[j])
			}
		}
		w := make([]float64, n)
		for k := range w {
			w[k] = rng.NormFloat64()
		}
		want := append([]float64(nil), w...)
		wantC := 0.0
		for _, v := range vs {
			wantC = sparse.Dot(v, want)
			sparse.Axpy(-wantC, v, want)
		}
		gotC := mgs(w, vs)
		if math.Float64bits(gotC) != math.Float64bits(wantC) {
			t.Fatalf("trial %d: coefficient %x, loop %x", trial, gotC, wantC)
		}
		for k := range w {
			if math.Float64bits(w[k]) != math.Float64bits(want[k]) {
				t.Fatalf("trial %d (n=%d, %d vectors): w[%d] = %x, loop %x", trial, n, len(vs), k, w[k], want[k])
			}
		}
	}
}

// TestLanczosCycleTimeSplit checks that every lanczos-cycle span carries
// the matvec/reorth/Ritz wall-time split, that the three parts fit inside
// the span, and that the eigen.*_ns registry counters total the spans.
func TestLanczosCycleTimeSplit(t *testing.T) {
	tr := obs.NewTrace("t")
	if _, err := Fiedler(plantedLaplacian(400, 7), Options{Rec: tr}); err != nil {
		t.Fatal(err)
	}
	root := tr.Finish()
	counters := tr.Metrics().Snapshot().Counters
	cycles := 0
	for _, sp := range root.Children {
		if sp.Name != "lanczos-cycle" {
			continue
		}
		cycles++
		parts := int64(0)
		for _, name := range []string{"matvec_ns", "reorth_ns", "ritz_ns"} {
			v, ok := sp.Counters[name]
			if !ok || v <= 0 {
				t.Fatalf("lanczos-cycle %s = %d (present %v), want > 0", name, v, ok)
			}
			parts += v
		}
		if parts > sp.DurationNS {
			t.Fatalf("time split %d ns exceeds the cycle's %d ns", parts, sp.DurationNS)
		}
	}
	if cycles == 0 {
		t.Fatal("no lanczos-cycle span recorded")
	}
	for _, name := range []string{"matvec_ns", "reorth_ns", "ritz_ns"} {
		if got, want := counters["eigen."+name], root.Sum(name); got != want {
			t.Fatalf("eigen.%s = %d, spans total %d", name, got, want)
		}
	}
}
