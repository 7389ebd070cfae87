package eigen

import (
	"errors"
	"math"
	"math/rand"
	"time"

	"igpart/internal/obs"
	"igpart/internal/sparse"
)

// This file implements block Lanczos — the solver family the paper's
// footnote 1 actually uses ("the block Lanczos algorithm [12]"). With
// block size b the method expands the Krylov basis b vectors at a time,
// which converges reliably when the wanted eigenvalue is clustered or (as
// with the λ=0 eigenvalue of a disconnected Laplacian) degenerate, where
// single-vector Lanczos may stall. Block size ≤ 1 selects the simple
// iteration in lanczos.go; Options.BlockSize picks the engine.

// blockCycle runs one restarted block-Lanczos cycle: it grows an
// orthonormal basis block by block (deflation respected), assembles the
// projected matrix T = BᵀAB, and returns the top Ritz pair with its true
// residual.
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
func blockCycle(op Operator, start []float64, deflate [][]float64, opts Options, rng *rand.Rand) (float64, []float64, float64, cycleStats, error) {
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

	// Initial block: the restart vector (if any) plus random fill.
	if start != nil {
		orthonormalize(append([]float64(nil), start...), 1e-12)
	}
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
	for len(basis) < opts.MaxSteps {
		if err := ctxErr(opts.Ctx); err != nil {
			return 0, nil, 0, st, err
		}
		hi := len(basis)
		grew := false
		w := make([]float64, n)
		for j := blockLo; j < hi && len(basis) < opts.MaxSteps; j++ {
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

	// Projected eigenproblem T = BᵀAB, solved densely (m ≤ MaxSteps).
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
	theta := vals[m-1]
	ritz := make([]float64, n)
	for j := 0; j < m; j++ {
		sparse.Axpy(z[j][m-1], basis[j], ritz)
	}
	mgs(ritz, deflate)
	sparse.Normalize(ritz)
	st.ritzNS = time.Since(t0)
	w := make([]float64, n)
	st.matvec(op, w, ritz, workers)
	mgs(w, deflate)
	sparse.Axpy(-theta, ritz, w)
	return theta, ritz, sparse.Norm2(w), st, nil
}

// largestDeflatedBlock is the block-mode counterpart of LargestDeflated.
func largestDeflatedBlock(op Operator, deflate [][]float64, opts Options) (float64, []float64, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	rec := obs.OrNop(opts.Rec)
	cycles := 0
	defer func() {
		rec.Count("restarts", int64(cycles-1))
		rec.Metrics().Counter("eigen.restarts").Add(int64(cycles - 1))
	}()
	var (
		theta    float64
		ritz     []float64
		residual = math.Inf(1)
	)
	var start []float64
	for cycle := 0; cycle < opts.MaxRestarts; cycle++ {
		if err := ctxErr(opts.Ctx); err != nil {
			return 0, nil, err
		}
		cycles++
		csp := rec.StartSpan("block-lanczos-cycle")
		csp.Count("block", int64(opts.BlockSize))
		th, v, res, cst, err := blockCycle(op, start, deflate, opts, rng)
		cst.record(csp, op.N())
		csp.End()
		if err != nil {
			return 0, nil, err
		}
		theta, ritz, residual = th, v, res
		if residual <= opts.Tol*math.Max(math.Abs(theta), 1) {
			if err := checkFinitePair(theta, ritz, cycle); err != nil {
				return theta, ritz, err
			}
			return theta, ritz, nil
		}
		start = ritz
	}
	if residual <= 1e3*opts.Tol*math.Max(math.Abs(theta), 1) {
		if err := checkFinitePair(theta, ritz, opts.MaxRestarts); err != nil {
			return theta, ritz, err
		}
		return theta, ritz, nil
	}
	return theta, ritz, &NoConvergeError{Residual: residual, Restarts: opts.MaxRestarts}
}
