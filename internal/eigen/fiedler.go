package eigen

import (
	"errors"
	"math"

	"igpart/internal/obs"
	"igpart/internal/par"
	"igpart/internal/sparse"
)

// shifted wraps a Laplacian Q as the operator B = σI − Q, mapping the
// smallest eigenvalues of Q to the largest of B. This mirrors the paper's
// use of −Q = A − D: the Kaniel–Paige–Saad theory makes Lanczos converge
// fastest to extremal (largest) eigenvalues, so we solve for the top of the
// shifted spectrum rather than the bottom of the original.
type shifted struct {
	q     Operator
	sigma float64
}

func (s *shifted) N() int { return s.q.N() }

func (s *shifted) MulVec(y, x []float64) {
	s.q.MulVec(y, x)
	for i := range y {
		y[i] = s.sigma*x[i] - y[i]
	}
}

// ParMulVec shards the underlying product and then the shift across
// workers. Both write y elementwise over disjoint ranges with unchanged
// per-element arithmetic, so the result is bit-identical to MulVec for
// every worker count.
func (s *shifted) ParMulVec(y, x []float64, workers int) {
	po, ok := s.q.(ParOperator)
	if !ok {
		s.MulVec(y, x)
		return
	}
	po.ParMulVec(y, x, workers)
	n := len(y)
	p := par.Workers(workers, n)
	bounds := par.Bounds(p, n)
	par.Run(p, func(i int) {
		for k := bounds[i][0]; k < bounds[i][1]; k++ {
			y[k] = s.sigma*x[k] - y[k]
		}
	})
}

// GershgorinUpper returns an upper bound on the largest eigenvalue of the
// symmetric matrix q from Gershgorin's circle theorem:
// max_i (q_ii + Σ_{j≠i} |q_ij|).
func GershgorinUpper(q *sparse.SymCSR) float64 {
	bound := 0.0
	for i := 0; i < q.N(); i++ {
		cols, vals := q.Row(i)
		r := 0.0
		for k, j := range cols {
			if j == i {
				r += vals[k]
			} else {
				r += math.Abs(vals[k])
			}
		}
		if i == 0 || r > bound {
			bound = r
		}
	}
	return bound
}

// The solver rungs a Fiedler computation can come from, recorded in
// FiedlerResult.Rung. The fallback chain descends RungLanczos →
// RungLanczosRetry → RungJacobiFallback; small instances go straight to
// RungDense.
const (
	// RungDense is the small-instance direct dense path (n ≤ denseCutoff).
	RungDense = "jacobi-dense"
	// RungLanczos is the first iterative attempt with the caller's options.
	RungLanczos = "lanczos"
	// RungLanczosRetry is the second attempt after a non-convergence:
	// reseeded start vector, doubled restart budget.
	RungLanczosRetry = "lanczos-retry"
	// RungJacobiFallback is the exact dense rescue taken when both
	// iterative rungs failed and the instance is small enough
	// (Options.DenseFallbackCutoff).
	RungJacobiFallback = "jacobi-fallback"
)

// ErrNonFinite reports a solver output containing NaN/Inf entries that
// survived every rescue rung — it must never reach the sweep ordering.
var ErrNonFinite = errors.New("eigen: Fiedler vector contains non-finite entries")

// FiedlerResult is the outcome of a Fiedler-vector computation.
type FiedlerResult struct {
	// Lambda2 is the second-smallest eigenvalue of the Laplacian. By the
	// Hagen–Kahng bound (Theorem 1), Lambda2/n lower-bounds the optimal
	// ratio-cut cost of the underlying graph.
	Lambda2 float64
	// Vector is the corresponding unit eigenvector, orthogonal to the
	// all-ones vector.
	Vector []float64
	// Dense records whether a dense (Jacobi) path produced the result —
	// the small-instance direct path or the fallback rung.
	Dense bool
	// Rung names the solver rung that produced the result (one of the
	// Rung* constants): degraded-mode runs are observable, not silent.
	Rung string
}

// denseCutoff is the dimension below which Fiedler uses the exact Jacobi
// solver instead of Lanczos.
const denseCutoff = 48

// retrySeed derives the reseeded start vector seed for the retry rung —
// an LCG step, so the retry explores a genuinely different Krylov space
// while staying a pure function of the original seed.
func retrySeed(seed int64) int64 {
	return seed*6364136223846793005 + 1442695040888963407
}

// largestWithRetry runs the iterative extremal solve with the first two
// rungs of the fallback chain: the configured Lanczos (or block
// Lanczos) attempt, then — on non-convergence or non-finite output —
// one retry from a reseeded start vector with a doubled restart budget.
// It reports which rung succeeded. Errors other than NoConvergeError
// propagate immediately; a NoConvergeError from the retry rung is
// returned for the caller to escalate to the dense rescue.
func largestWithRetry(op Operator, deflate [][]float64, opts Options) (float64, []float64, string, error) {
	mu, x, err := LargestDeflated(op, deflate, opts)
	if err == nil {
		return mu, x, RungLanczos, nil
	}
	var nc *NoConvergeError
	if !errors.As(err, &nc) {
		return 0, nil, RungLanczos, err
	}
	retry := opts
	retry.Seed = retrySeed(opts.Seed)
	retry.maxRestarts = 2 * opts.withDefaults(op.N()).maxRestarts
	// The retry rung also abandons selective reorthogonalization: if the
	// first attempt stalled because the ω-monitor under-estimated the
	// orthogonality loss, rerunning with the full scheme removes that
	// failure mode before the chain escalates to the dense rescue.
	retry.ReorthMode = ReorthFull
	rec := obs.OrNop(opts.Rec)
	sp := rec.StartSpan("eigen-retry")
	sp.Count("restart-budget", int64(retry.maxRestarts))
	mu, x, err = LargestDeflated(op, deflate, retry)
	sp.End()
	rec.Metrics().Counter("eigen.fallback_retries").Add(1)
	return mu, x, RungLanczosRetry, err
}

// Fiedler computes the second-smallest eigenpair of the graph Laplacian q
// (q must satisfy Q·1 = 0, which sparse.Laplacian guarantees): the
// smallest pair orthogonal to the constant vector 1/√n. Small instances
// are solved densely by Jacobi; larger ones use shifted Lanczos with the
// constant vector deflated.
//
// Solver failure is a recoverable event, not an error: on Lanczos
// non-convergence (or NaN/Inf output) the computation descends a
// fallback chain — retry once with a reseeded start vector and a
// doubled restart budget, then solve exactly with dense Jacobi when the
// instance is at most Options.DenseFallbackCutoff. The rung that
// produced the result is recorded in FiedlerResult.Rung and in the
// eigen.fallback_* counters of the run's metrics registry. Only when
// every applicable rung fails does Fiedler return an error.
func Fiedler(q *sparse.SymCSR, opts Options) (FiedlerResult, error) {
	n := q.N()
	if n < 2 {
		return FiedlerResult{}, errors.New("eigen: Fiedler vector needs at least 2 vertices")
	}
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1 / math.Sqrt(float64(n))
	}
	vals, vecs, rung, _, err := smallestPairs(q, [][]float64{ones}, 1, opts)
	if err != nil {
		return FiedlerResult{}, err
	}
	dense := rung == RungDense || rung == RungJacobiFallback
	return FiedlerResult{Lambda2: vals[0], Vector: vecs[0], Dense: dense, Rung: rung}, nil
}

// smallestPairs is the one smallest-eigenpair driver behind Fiedler and
// SmallestK. It returns the k smallest eigenpairs (ascending) of q
// orthogonal to the orthonormal deflation set, which must span the
// eigenvectors of q's len(deflate) smallest eigenvalues (as {1/√n} does
// for a connected graph Laplacian), and the deepest rung that produced
// them.
//
// Small instances (n ≤ denseCutoff, or k ≥ n/2) take the exact dense
// path. Otherwise it shifts q by its Gershgorin bound σ and solves pair j
// as the largest eigenpair of σI − q orthogonal to the deflation set and
// the pairs before it, through the retry rung with seed Seed+j. When a
// pair's chain ends in non-convergence and n is within
// Options.DenseFallbackCutoff, the dense rescue replaces the whole run;
// otherwise the error is returned with failed, the 1-based pair it ended
// on (0 for every other error).
func smallestPairs(q *sparse.SymCSR, deflate [][]float64, k int, opts Options) (vals []float64, vecs [][]float64, rung string, failed int, err error) {
	n, from := q.N(), len(deflate)
	if n <= denseCutoff || k >= n/2 {
		vals, vecs, err = denseSmallest(q, from, k, opts.Rec, RungDense)
		return vals, vecs, RungDense, 0, err
	}

	sigma := GershgorinUpper(q)
	if sigma <= 0 {
		sigma = 1 // empty graph: Q = 0, any orthonormal basis works
	}
	op := &shifted{q: q, sigma: sigma}
	rung = RungLanczos
	for j := 0; j < k; j++ {
		o := opts
		o.Seed = opts.Seed + int64(j)
		mu, x, pairRung, err := largestWithRetry(op, deflate, o)
		if err != nil {
			var nc *NoConvergeError
			if !errors.As(err, &nc) || n > opts.denseFallbackCutoff() {
				return nil, nil, "", j + 1, err
			}
			// The dense rescue replaces the whole deflation run: the
			// exact solver returns every pair at once.
			obs.OrNop(opts.Rec).Metrics().Counter("eigen.fallback_jacobi").Add(1)
			vals, vecs, err = denseSmallest(q, from, k, opts.Rec, RungJacobiFallback)
			return vals, vecs, RungJacobiFallback, 0, err
		}
		if pairRung == RungLanczosRetry {
			rung = pairRung
		}
		lam := sigma - mu
		if lam < 0 && lam > -1e-9*sigma {
			lam = 0 // clamp tiny negative round-off on disconnected graphs
		}
		if math.IsNaN(lam) || math.IsInf(lam, 0) || !finite(x) {
			// checkFinitePair guards the solver returns, so this is belt
			// and braces for the σ−μ arithmetic itself.
			return nil, nil, rung, 0, ErrNonFinite
		}
		vals = append(vals, lam)
		vecs = append(vecs, x)
		deflate = append(deflate, x)
	}
	// Deflated solves can return pairs marginally out of order when
	// eigenvalues are nearly degenerate; enforce ascending order.
	for i := 1; i < k; i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
			vecs[j], vecs[j-1] = vecs[j-1], vecs[j]
		}
	}
	return vals, vecs, rung, 0, nil
}

// denseSmallest solves q exactly with dense Jacobi under a span named
// rung and returns the eigenpairs in columns [from, from+k) of the
// ascending decomposition, guarding them against non-finite values.
func denseSmallest(q *sparse.SymCSR, from, k int, rec obs.Recorder, rung string) ([]float64, [][]float64, error) {
	n := q.N()
	sp := obs.OrNop(rec).StartSpan(rung)
	vals, z, err := Jacobi(sparse.FromCSR(q), 0)
	sp.Count("dim", int64(n))
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	vecs := make([][]float64, k)
	for j := range vecs {
		v := make([]float64, n)
		for i := range v {
			v[i] = z[i][from+j]
		}
		if !finite(v) || math.IsNaN(vals[from+j]) || math.IsInf(vals[from+j], 0) {
			return nil, nil, ErrNonFinite
		}
		vecs[j] = v
	}
	return vals[from : from+k], vecs, nil
}
