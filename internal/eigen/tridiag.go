// Package eigen implements the symmetric eigensolvers behind the spectral
// partitioners as one path. LargestDeflated is the one restart loop: its
// cycles are single-vector Lanczos (the sparse workhorse, standing in for
// the block Lanczos code the paper uses) or block Lanczos, both with
// deflation and ω-monitored selective reorthogonalization (full
// reorthogonalization below ReorthAutoCutoff or on request), and both
// finish through one Ritz-vector tail. A symmetric tridiagonal QL solver
// serves the Lanczos projection, and a dense Jacobi solver serves
// cross-validation, tiny instances and the rescue rung. Fiedler and
// SmallestK are thin callers of one smallest-eigenpair driver that holds
// the dense path, the spectral shift and the fallback chain.
package eigen

import (
	"errors"
	"math"

	"igpart/internal/par"
)

// qlRotation is one Givens rotation of the implicit QL sweep: it mixes
// eigenvector columns i and i+1 of every row.
type qlRotation struct {
	i    int
	s, c float64
}

// qlPass runs the implicit QL method with Wilkinson shifts on a symmetric
// tridiagonal matrix (the classical EISPACK tql2 algorithm) with the
// eigenvector updates factored out. The eigenvalue recurrence never reads
// the eigenvectors, so instead of updating them the pass hands the
// rotations of each QL sweep to a caller; applying them in order to the
// rows of the identity reproduces tql2's eigenvector matrix bit for bit.
// Buffers are reused across runs.
type qlPass struct {
	vals  []float64 // eigenvalues, ascending after a run over every phase
	perm  []int     // perm[k]: the QL slot holding the k-th smallest eigenpair
	sub   []float64
	sweep []qlRotation
}

// run performs phases 0…phases−1 of the QL iteration on the matrix with
// diagonal d (length n) and subdiagonal e (length n−1), calling apply,
// when non-nil, with the rotations of each sweep in tql2's order. Phase l
// ends when eigenvalue slot l has converged. A run over all n phases then
// sorts vals ascending and fills perm. d and e are not modified.
func (q *qlPass) run(d, e []float64, phases int, apply func([]qlRotation)) error {
	n := len(d)
	if len(e) != n-1 && !(n == 0 && len(e) == 0) {
		return errors.New("eigen: subdiagonal must have length n-1")
	}
	vals := append(q.vals[:0], d...)
	sub := append(append(q.sub[:0], e...), 0) // sub[n-1] = 0
	sweep := q.sweep[:0]
	defer func() { q.vals, q.sub, q.sweep = vals, sub, sweep }()

	for l := 0; l < phases; l++ {
		for iter := 0; ; iter++ {
			// Find the first small subdiagonal element at or after l.
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(vals[m]) + math.Abs(vals[m+1])
				if math.Abs(sub[m]) <= math.SmallestNonzeroFloat64 || math.Abs(sub[m]) <= 1e-16*dd {
					break
				}
			}
			if m == l {
				break
			}
			if iter >= 50 {
				return errors.New("eigen: tridiagonal QL failed to converge in 50 iterations")
			}
			// Form the Wilkinson shift.
			g := (vals[l+1] - vals[l]) / (2 * sub[l])
			r := math.Hypot(g, 1)
			g = vals[m] - vals[l] + sub[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			sweep = sweep[:0]
			for i := m - 1; i >= l; i-- {
				f := s * sub[i]
				b := c * sub[i]
				r = math.Hypot(f, g)
				sub[i+1] = r
				if r == 0 {
					vals[i+1] -= p
					sub[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = vals[i+1] - p
				r = (vals[i]-g)*s + 2*c*b
				p = s * r
				vals[i+1] = g + p
				g = c*r - b
				sweep = append(sweep, qlRotation{i, s, c})
			}
			if apply != nil && len(sweep) > 0 {
				apply(sweep)
			}
			if r == 0 && m-1 >= l {
				continue
			}
			vals[l] -= p
			sub[l] = g
			sub[m] = 0
		}
	}
	if phases < n {
		return nil
	}

	// Selection-sort the eigenvalues ascending, carrying the slot indices.
	perm := q.perm[:0]
	for i := 0; i < n; i++ {
		perm = append(perm, i)
	}
	for i := 0; i < n-1; i++ {
		k := i
		for j := i + 1; j < n; j++ {
			if vals[j] < vals[k] {
				k = j
			}
		}
		if k != i {
			vals[i], vals[k] = vals[k], vals[i]
			perm[i], perm[k] = perm[k], perm[i]
		}
	}
	q.perm = perm
	return nil
}

// SymTridiagonal solves the full eigenproblem of a symmetric tridiagonal
// matrix with diagonal d (length n) and subdiagonal e (length n−1), using
// the implicit QL method with Wilkinson shifts (the classical EISPACK tql2
// algorithm). It returns the eigenvalues in ascending order and, when
// wantVectors is set, the matrix of eigenvectors z with z[i][k] the i-th
// component of the k-th eigenvector. d and e are not modified.
//
// The vectors take tql2's row-strided updates, rotation by rotation; this
// is the reference the single-pair extraction of ritzWork.top is tested
// against.
func SymTridiagonal(d, e []float64, wantVectors bool) (vals []float64, z [][]float64, err error) {
	n := len(d)
	var apply func([]qlRotation)
	if wantVectors {
		z = make([][]float64, n)
		for i := range z {
			z[i] = make([]float64, n)
			z[i][i] = 1
		}
		apply = func(sweep []qlRotation) {
			for _, rot := range sweep {
				i, s, c := rot.i, rot.s, rot.c
				for k := 0; k < n; k++ {
					f := z[k][i+1]
					z[k][i+1] = s*z[k][i] + c*f
					z[k][i] = c*z[k][i] - s*f
				}
			}
		}
	}
	var ql qlPass
	if err := ql.run(d, e, n, apply); err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, nil, nil
	}
	if wantVectors {
		// Permute the columns into ascending eigenvalue order.
		row := make([]float64, n)
		for _, zr := range z {
			copy(row, zr)
			for k, slot := range ql.perm {
				zr[k] = row[slot]
			}
		}
	}
	return ql.vals, z, nil
}

// replayTile is the row-tile height of the Ritz replay: a tile of 32 rows
// keeps the columns a sweep touches in cache while its rotations pass
// over them.
const replayTile = 32

// ritzWork extracts the top eigenpair of a Lanczos tridiagonal. Its
// buffers (the QL passes and the replay matrix) are reused across restart
// cycles, so repeated extractions do not grow memory.
type ritzWork struct {
	ql     qlPass
	replay []qlPass // one per replay worker
	z      []float64
}

// top returns the largest eigenvalue of the tridiagonal matrix (d, e),
// n ≥ 1, and its unit eigenvector y: bit-identical to vals[n−1] and
// column n−1 of SymTridiagonal(d, e, true), without building the other
// n−1 vectors. y aliases w's buffers and is valid until the next call.
//
// A values-only QL pass and its selection sort name the slot k0 = perm[n−1]
// that ends up last. Phase l's rotations mix only columns l…m with m > l,
// so later phases never touch column k0: the replay reruns the QL
// recurrence through phase k0 only, applying each sweep's rotations to
// the identity as it goes. The matrix is column-major with the rows cut
// into one contiguous range per worker (workers follows the par.Workers
// convention), each range walked in replayTile-row tiles; every worker
// reruns the recurrence for itself, so the workers never synchronize.
// Rows evolve independently under the rotations, so each element sees
// the same arithmetic in the same order as in tql2 at any worker count.
func (w *ritzWork) top(d, e []float64, workers int) (float64, []float64, error) {
	n := len(d)
	if n == 0 {
		return 0, nil, errors.New("eigen: empty tridiagonal")
	}
	if err := w.ql.run(d, e, n, nil); err != nil {
		return 0, nil, err
	}
	k0 := w.ql.perm[n-1]
	if cap(w.z) < n*n {
		w.z = make([]float64, n*n)
	}
	z := w.z[:n*n]
	clear(z)
	for i := 0; i < n; i++ {
		z[i*n+i] = 1
	}
	p := par.Workers(workers, n)
	for len(w.replay) < p {
		w.replay = append(w.replay, qlPass{})
	}
	bounds := par.Bounds(p, n)
	par.Run(p, func(b int) {
		lo, hi := bounds[b][0], bounds[b][1]
		// The same recurrence already ran to completion above, so this
		// shorter rerun cannot fail.
		_ = w.replay[b].run(d, e, k0+1, func(sweep []qlRotation) {
			for t := lo; t < hi; t += replayTile {
				u := min(t+replayTile, hi)
				for _, rot := range sweep {
					s, c := rot.s, rot.c
					zi := z[rot.i*n+t : rot.i*n+u]
					zj := z[(rot.i+1)*n+t : (rot.i+1)*n+u]
					zj = zj[:len(zi)]
					for k, f := range zj {
						zj[k] = s*zi[k] + c*f
						zi[k] = c*zi[k] - s*f
					}
				}
			}
		})
	})
	return w.ql.vals[n-1], z[k0*n : (k0+1)*n], nil
}
