package eigen

import (
	"errors"
	"math"
	"math/rand"
	"time"

	"igpart/internal/sparse"
)

// This file implements the block cycle of LargestDeflated: block Lanczos,
// the solver family the paper's footnote 1 actually uses ("the block
// Lanczos algorithm [12]"). With block size b the method expands the
// Krylov basis b vectors at a time, which converges reliably when the
// wanted eigenvalue is clustered or (as with the λ=0 eigenvalue of a
// disconnected Laplacian) degenerate, where single-vector Lanczos may
// stall. Options.BlockSize > 1 selects it; the restart loop, its
// acceptance tests and the Ritz-vector tail are shared with the
// single-vector cycle in lanczos.go.

// blockCycle runs one restarted block-Lanczos cycle: it grows an
// orthonormal basis block by block (deflation respected) from the start
// vector plus random fill, assembles the projected matrix T = BᵀAB, and
// returns the top Ritz pair with its true residual.
//
// Reorthogonalization follows Options.ReorthMode. Full mode projects
// every new vector against the whole basis twice. Selective mode is the
// block-structured variant of the scheme in lanczos.go: by the block
// three-term recurrence a new image is already orthogonal to all but the
// preceding block and the block under construction, so only those are
// projected out, and a measured
// drift probe (one O(n) dot against the oldest basis vector, the
// direction round-off drifts toward first) escalates to a full cleanup
// whenever semiorthogonality √ε is lost.
func blockCycle(op Operator, start []float64, deflate [][]float64, opts Options, rng *rand.Rand, ws *lanczosWork) (float64, []float64, float64, cycleStats, error) {
	n := op.N()
	bs := opts.BlockSize
	var st cycleStats
	workers := opts.matvecWorkers(n)
	selective := opts.selectiveReorth(n)

	var basis, seq [][]float64
	blockLo := 0 // start of the block currently being expanded from

	// orthonormalize projects v against the deflation space and the basis
	// and appends it when it survives.
	orthonormalize := func(v []float64, threshold float64) bool {
		t0 := time.Now()
		defer func() { st.reorthNS += time.Since(t0) }()
		mgs(v, deflate)
		full := func() {
			seq = reorthSeq(seq, basis, deflate)
			mgs(v, seq)
		}
		if !selective || blockLo == 0 {
			full()
		} else {
			seq = reorthSeq(seq, basis[blockLo:], deflate)
			mgs(v, seq)
			nrm := sparse.Norm2(v)
			if nrm > threshold && math.Abs(sparse.Dot(basis[0], v))/nrm > omegaThreshold {
				full()
				st.reorthForced++
			} else {
				st.reorthSkipped += blockLo
			}
		}
		if sparse.Normalize(v) <= threshold {
			return false
		}
		basis = append(basis, v)
		return true
	}

	// Initial block: the start vector plus random fill.
	orthonormalize(append([]float64(nil), start...), 1e-12)
	for len(basis) < bs {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		if !orthonormalize(v, 1e-12) && len(basis) == 0 {
			return 0, nil, 0, st, errors.New("eigen: block Lanczos could not build a starting block")
		}
	}

	// Expand: apply the operator to the newest block, orthogonalize the
	// images, stop at an invariant subspace or the step budget.
	for len(basis) < opts.maxSteps {
		if err := ctxErr(opts.Ctx); err != nil {
			return 0, nil, 0, st, err
		}
		hi := len(basis)
		grew := false
		w := ws.w
		for j := blockLo; j < hi && len(basis) < opts.maxSteps; j++ {
			st.matvec(op, w, basis[j], workers)
			if orthonormalize(append([]float64(nil), w...), 1e-10) {
				grew = true
			}
		}
		if !grew {
			break
		}
		blockLo = hi
	}

	// Projected eigenproblem T = BᵀAB, solved densely (m ≤ maxSteps).
	m := len(basis)
	if m == 0 {
		return 0, nil, 0, st, errors.New("eigen: empty block Lanczos basis")
	}
	st.steps = m
	img := make([][]float64, m)
	for j := 0; j < m; j++ {
		img[j] = make([]float64, n)
		st.matvec(op, img[j], basis[j], workers)
		mgs(img[j], deflate)
	}
	t0 := time.Now()
	T := sparse.NewSymDense(m)
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			T.Set(i, j, sparse.Dot(basis[i], img[j]))
		}
	}
	vals, z, err := Jacobi(T, 0)
	if err != nil {
		return 0, nil, 0, st, err
	}
	y := make([]float64, m)
	for j := range y {
		y[j] = z[j][m-1]
	}
	ritz, residual := st.ritzPair(op, basis, vals[m-1], y, deflate, ws.w, workers, t0)
	return vals[m-1], ritz, residual, st, nil
}
