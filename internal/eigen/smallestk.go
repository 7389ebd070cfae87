package eigen

import (
	"errors"
	"fmt"
	"math"

	"igpart/internal/sparse"
)

// SmallestK computes the k smallest eigenvalues (ascending) of the
// symmetric matrix q and their orthonormal eigenvectors. It runs the
// driver behind Fiedler with an empty deflation set: small instances are
// solved densely by Jacobi; larger ones run shifted Lanczos once per pair,
// deflating each converged eigenvector, and each pair carries Fiedler's
// fallback chain — a reseeded doubled-budget retry on non-convergence,
// then, when the instance is within Options.DenseFallbackCutoff, an exact
// dense solve of the whole problem instead of an error. A chain that
// fails anyway is reported with the pair it ended on ("eigen: pair j:").
//
// For a graph Laplacian the first pair is (0, constant vector); Hall's
// quadratic placement (Appendix A of the paper) uses pairs 2 and 3 for a
// two-dimensional embedding.
func SmallestK(q *sparse.SymCSR, k int, opts Options) ([]float64, [][]float64, error) {
	n := q.N()
	if k < 1 || k > n {
		return nil, nil, fmt.Errorf("eigen: k=%d outside [1,%d]", k, n)
	}
	vals, vecs, _, failed, err := smallestPairs(q, nil, k, opts)
	if failed > 0 {
		return nil, nil, fmt.Errorf("eigen: pair %d: %w", failed, err)
	}
	return vals, vecs, err
}

// Residual returns ‖q·x − λx‖ for diagnostics and tests.
func Residual(q Operator, lambda float64, x []float64) float64 {
	if len(x) != q.N() {
		return math.Inf(1)
	}
	y := make([]float64, len(x))
	q.MulVec(y, x)
	sparse.Axpy(-lambda, x, y)
	return sparse.Norm2(y)
}

// CheckOrthonormal verifies that the given vectors are unit length and
// mutually orthogonal within tol; a testing aid.
func CheckOrthonormal(vecs [][]float64, tol float64) error {
	for i, a := range vecs {
		for j := i; j < len(vecs); j++ {
			d := sparse.Dot(a, vecs[j])
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(d-want) > tol {
				return errors.New("eigen: vectors not orthonormal")
			}
		}
	}
	return nil
}
