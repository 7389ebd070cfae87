package eigen

import (
	"math/rand"
	"testing"
)

// randomTridiagonal draws a seeded symmetric tridiagonal matrix of order n.
func randomTridiagonal(n int, seed int64) (d, e []float64) {
	rng := rand.New(rand.NewSource(seed))
	d = make([]float64, n)
	e = make([]float64, max(n-1, 0))
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	for i := range e {
		e[i] = rng.NormFloat64()
	}
	return d, e
}

// BenchmarkRitzPair300 compares the top-Ritz-pair extraction of a
// 300×300 Lanczos tridiagonal (the default cycle length) against the
// full eigenvector reference it replaces.
func BenchmarkRitzPair300(b *testing.B) {
	d, e := randomTridiagonal(300, 1)
	b.Run("top", func(b *testing.B) {
		var w ritzWork
		for i := 0; i < b.N; i++ {
			if _, _, err := w.top(d, e, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("all-vectors", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := SymTridiagonal(d, e, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFiedlerScale5k times the whole Fiedler solve on the scale100k
// preset at a twentieth of its size (5000 nets, selective
// reorthogonalization), serial and at GOMAXPROCS matvec workers.
func BenchmarkFiedlerScale5k(b *testing.B) {
	q := presetLaplacian(b, "scale100k", 0.05)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"p1", 1}, {"pN", -1}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Fiedler(q, Options{MatvecWorkers: bc.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
