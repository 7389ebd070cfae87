package eigen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"igpart/internal/fault"
	"igpart/internal/obs"
	"igpart/internal/sparse"
)

// Operator is a symmetric linear operator on R^n. Both sparse.SymCSR and
// sparse.SymDense satisfy it.
type Operator interface {
	N() int
	MulVec(y, x []float64)
}

// ParOperator is an Operator whose product can shard rows across worker
// goroutines with bit-identical results for every worker count.
// sparse.SymCSR (and the shifted wrapper Fiedler builds) satisfy it.
type ParOperator interface {
	Operator
	ParMulVec(y, x []float64, workers int)
}

// opMulVec dispatches one matvec, through the row-sharded parallel
// kernel when workers enables it and the operator supports it.
// workers follows the ParMulVec convention: 1 forces the serial kernel,
// <= 0 selects GOMAXPROCS.
func opMulVec(op Operator, y, x []float64, workers int) {
	if workers != 1 {
		if po, ok := op.(ParOperator); ok {
			po.ParMulVec(y, x, workers)
			return
		}
	}
	op.MulVec(y, x)
}

// Options tunes the Lanczos iteration. The zero value selects sensible
// defaults for netlist-sized Laplacians.
type Options struct {
	// Tol is the relative residual tolerance for Ritz-pair convergence.
	// Default: 1e-8.
	Tol float64
	// Seed seeds the random starting vector, making runs reproducible.
	Seed int64
	// BlockSize selects block Lanczos with the given block width when > 1
	// (the solver family of the paper's reference [12]); ≤ 1 selects the
	// simple single-vector iteration.
	BlockSize int
	// ReorthMode selects the reorthogonalization strategy: ReorthAuto
	// (default) runs the ω-monitored selective scheme once the dimension
	// reaches ReorthAutoCutoff and the historical full scheme below it;
	// ReorthFull and ReorthSelective force one or the other.
	ReorthMode ReorthMode
	// MatvecWorkers bounds the worker goroutines of the row-sharded
	// parallel matvec on operators that support it (CSR Laplacians and
	// their shifted wrappers), and of the Ritz-vector replay of each
	// cycle. 0 selects auto — GOMAXPROCS workers once the dimension
	// reaches parMatvecMinRows, serial below it; 1 forces the serial
	// kernels; negative means GOMAXPROCS unconditionally. Results are
	// bit-identical for every value.
	MatvecWorkers int
	// Rec, when non-nil, receives one stage span per restart cycle
	// (Krylov steps, matrix–vector products, and the cycle's wall time
	// split into matvec_ns, reorth_ns and ritz_ns) plus restart counters.
	// Recording never changes the iteration.
	Rec obs.Recorder
	// Ctx, when non-nil, enables cooperative cancellation: the solver
	// polls it at the start of every restart cycle and every few Krylov
	// steps within a cycle, returning ctx.Err() once it fires. A nil or
	// background context changes nothing — the iteration (and therefore
	// every eigenpair) is bit-identical with or without one.
	Ctx context.Context
	// DenseFallbackCutoff bounds the dimension up to which Fiedler (and
	// SmallestK) may fall back to the exact dense Jacobi solver after
	// the iterative rungs fail. 0 selects the default (512); negative
	// disables the dense fallback rung entirely.
	DenseFallbackCutoff int
	// Fault, when non-nil, arms deterministic fault injection: the
	// fault.EigenNoConverge point fires at solve entry and simulates a
	// non-convergence, exercising the fallback chain. A nil injector is
	// a no-op — production runs are bit-identical with or without the
	// field wired.
	Fault *fault.Injector

	// maxSteps caps the Krylov dimension of a restart cycle and
	// maxRestarts bounds the restart cycles of a solve. withDefaults
	// resolves both; the retry rung doubles the resolved restart budget.
	maxSteps, maxRestarts int
}

// defaultDenseFallback is the dimension bound for the dense Jacobi
// fallback rung when Options.DenseFallbackCutoff is 0. Jacobi is O(n³)
// per sweep, so the bound keeps the worst-case rescue solve within
// interactive time while covering every netlist the paper evaluates.
const defaultDenseFallback = 512

// denseFallbackCutoff resolves Options.DenseFallbackCutoff.
func (o Options) denseFallbackCutoff() int {
	if o.DenseFallbackCutoff > 0 {
		return o.DenseFallbackCutoff
	}
	if o.DenseFallbackCutoff < 0 {
		return 0
	}
	return defaultDenseFallback
}

// NoConvergeError reports that an iterative eigensolve failed to reach
// its tolerance (or produced a non-finite result, which is treated the
// same way). It is the trigger of the Fiedler fallback chain: callers
// detect it with errors.As and escalate to the next rung instead of
// failing the whole pipeline.
type NoConvergeError struct {
	// Residual is the best residual norm reached (0 when injected).
	Residual float64
	// Restarts is the restart budget that was exhausted.
	Restarts int
	// NonFinite marks a solve that converged numerically but produced
	// NaN/Inf entries — poisoned output that must not reach the sweep.
	NonFinite bool
	// Injected marks a simulated non-convergence from fault injection.
	Injected bool
}

func (e *NoConvergeError) Error() string {
	switch {
	case e.Injected:
		return "eigen: injected non-convergence (fault eigen.noconverge)"
	case e.NonFinite:
		return fmt.Sprintf("eigen: solve produced non-finite values (residual %.3g after %d restarts)", e.Residual, e.Restarts)
	default:
		return fmt.Sprintf("eigen: did not converge (residual %.3g after %d restarts)", e.Residual, e.Restarts)
	}
}

// finite reports whether every entry of x is a finite float.
func finite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// checkFinitePair guards an iterative solve's output: a NaN/Inf value
// or vector entry becomes a NoConvergeError so the fallback chain trips
// instead of a poisoned ordering reaching the sweep.
func checkFinitePair(theta float64, ritz []float64, restarts int) error {
	if math.IsNaN(theta) || math.IsInf(theta, 0) || !finite(ritz) {
		return &NoConvergeError{Restarts: restarts, NonFinite: true}
	}
	return nil
}

// ctxErr polls an optional context: nil contexts never cancel.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// cancelCheckSteps is how many Krylov steps (one matvec each) may elapse
// between context polls inside a cycle.
const cancelCheckSteps = 16

// parMatvecMinRows is the dimension from which Options.MatvecWorkers = 0
// turns the parallel matvec on. Below it the goroutine fork/join costs
// more than the row sweep saves.
const parMatvecMinRows = 4096

// matvecWorkers resolves Options.MatvecWorkers against the dimension
// into a ParMulVec workers argument (1 = serial, <= 0 = GOMAXPROCS).
func (o Options) matvecWorkers(n int) int {
	if o.MatvecWorkers != 0 {
		return o.MatvecWorkers
	}
	if n >= parMatvecMinRows {
		return 0
	}
	return 1
}

// withDefaults resolves the defaults of a solve in dimension n: Tol 1e-8,
// at most min(n, 300) Krylov steps per cycle (min(n, 120) in block mode,
// whose projected solve is dense) and 8 restart cycles.
func (o Options) withDefaults(n int) Options {
	o.maxSteps = 300
	if o.BlockSize > 1 {
		o.maxSteps = 120
	}
	o.maxSteps = min(o.maxSteps, n)
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.maxRestarts <= 0 {
		o.maxRestarts = 8
	}
	return o
}

// LargestDeflated computes the largest eigenvalue and a corresponding unit
// eigenvector of op restricted to the orthogonal complement of the deflate
// vectors (which must each be unit length and mutually orthogonal). With an
// empty deflation set it is a plain symmetric Lanczos extremal solve.
//
// The method is restarted Lanczos: each cycle builds a Krylov basis, single
// vectors at a time or, with Options.BlockSize > 1, whole blocks (block
// Lanczos, blocklanczos.go), and the next cycle restarts from the best Ritz
// vector until the residual ‖op·x − θx‖ falls below Tol·|θ| or the restart
// budget (8 cycles, doubled on the retry rung) runs out. After the budget,
// a residual within 10³·Tol·|θ| is still accepted; anything else is a
// NoConvergeError. Every Krylov vector is kept orthogonal to the
// deflation vectors; its orthogonality to the stored basis follows
// Options.ReorthMode: by default the ω-monitored selective scheme from
// ReorthAutoCutoff up, and full reorthogonalization (against every basis
// and deflation vector, twice) below it.
func LargestDeflated(op Operator, deflate [][]float64, opts Options) (float64, []float64, error) {
	n := op.N()
	if n == 0 {
		return 0, nil, errors.New("eigen: empty operator")
	}
	if len(deflate) >= n {
		return 0, nil, fmt.Errorf("eigen: %d deflation vectors leave no residual space in dimension %d", len(deflate), n)
	}
	opts = opts.withDefaults(n)
	opts.maxSteps = min(opts.maxSteps, n-len(deflate))
	if opts.Fault.Active(fault.EigenNoConverge) {
		// Simulated non-convergence: fail at solve entry exactly as an
		// exhausted restart budget would, so the caller's fallback chain
		// is exercised end to end.
		return 0, nil, &NoConvergeError{Restarts: opts.maxRestarts, Injected: true}
	}

	// The first cycle starts from a random vector of the seeded stream;
	// the block cycle fills the rest of its first block from the same
	// stream.
	rng := rand.New(rand.NewSource(opts.Seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	cycle, spanName := lanczosCycle, "lanczos-cycle"
	if opts.BlockSize > 1 {
		cycle, spanName = blockCycle, "block-lanczos-cycle"
	}

	rec := obs.OrNop(opts.Rec)
	cycles := 0
	defer func() {
		// Cycles beyond the first are restarts (the paper's solver
		// rarely needs any on netlist-sized Laplacians).
		rec.Count("restarts", int64(cycles-1))
		rec.Metrics().Counter("eigen.restarts").Add(int64(cycles - 1))
	}()

	var (
		theta    float64
		ritz     []float64
		residual = math.Inf(1)
	)
	ws := lanczosWork{w: make([]float64, n)}
	for c := 0; c < opts.maxRestarts; c++ {
		if err := ctxErr(opts.Ctx); err != nil {
			return 0, nil, err
		}
		cycles++
		csp := rec.StartSpan(spanName)
		if opts.BlockSize > 1 {
			csp.Count("block", int64(opts.BlockSize))
		}
		th, v, res, cst, err := cycle(op, x, deflate, opts, rng, &ws)
		cst.record(csp, n)
		csp.End()
		if err != nil {
			return 0, nil, err
		}
		theta, ritz, residual = th, v, res
		if residual <= opts.Tol*math.Max(math.Abs(theta), 1) {
			if err := checkFinitePair(theta, ritz, c); err != nil {
				return theta, ritz, err
			}
			return theta, ritz, nil
		}
		x = ritz // restart from the best Ritz vector
	}
	if residual <= 1e3*opts.Tol*math.Max(math.Abs(theta), 1) {
		// Close enough for a combinatorial consumer: the sorted order of the
		// eigenvector entries is what partitioning uses.
		if err := checkFinitePair(theta, ritz, opts.maxRestarts); err != nil {
			return theta, ritz, err
		}
		return theta, ritz, nil
	}
	return theta, ritz, &NoConvergeError{Residual: residual, Restarts: opts.maxRestarts}
}

// cycleStats aggregates the per-cycle work counters the restart loop
// feeds into spans and the metrics registry.
type cycleStats struct {
	steps         int // Krylov steps taken
	matvecs       int // operator applications (steps + residual checks)
	reorthSkipped int // selective steps where the ω-monitor skipped full reorth
	reorthForced  int // selective steps where it triggered full reorth
	// Wall time split of the cycle: operator applications, orthogonality
	// upkeep (Gram–Schmidt passes and the ω-monitor), and the projected
	// eigensolve plus Ritz-vector assembly. The remainder is the
	// three-term recurrence and its norms.
	matvecNS, reorthNS, ritzNS time.Duration
}

// record adds one cycle's counters to its span and to the run's metrics
// registry. n is the operator dimension.
func (st cycleStats) record(sp obs.Recorder, n int) {
	sp.Count("steps", int64(st.steps))
	sp.Count("matvecs", int64(st.matvecs))
	sp.Count("matvec_ns", int64(st.matvecNS))
	sp.Count("reorth_ns", int64(st.reorthNS))
	sp.Count("ritz_ns", int64(st.ritzNS))
	met := sp.Metrics()
	met.Counter("eigen.matvecs").Add(int64(st.matvecs))
	met.Counter("eigen.matvec.rows").Add(int64(st.matvecs) * int64(n))
	met.Counter("eigen.reorth.skipped").Add(int64(st.reorthSkipped))
	met.Counter("eigen.reorth.forced").Add(int64(st.reorthForced))
	met.Counter("eigen.matvec_ns").Add(int64(st.matvecNS))
	met.Counter("eigen.reorth_ns").Add(int64(st.reorthNS))
	met.Counter("eigen.ritz_ns").Add(int64(st.ritzNS))
}

// matvec applies op and charges the time to the cycle.
func (st *cycleStats) matvec(op Operator, y, x []float64, workers int) {
	t0 := time.Now()
	opMulVec(op, y, x, workers)
	st.matvecNS += time.Since(t0)
	st.matvecs++
}

// ritzPair is the tail both cycle kinds share. It assembles the Ritz
// vector x = Σ y[j]·basis[j] of the projected eigenpair (θ, y), removes
// the deflated components, normalizes x and charges the time since t0 to
// ritz_ns. It returns x, freshly allocated, with its true residual
// ‖op·x − θx‖, computed in the work vector w.
func (st *cycleStats) ritzPair(op Operator, basis [][]float64, theta float64, y []float64, deflate [][]float64, w []float64, workers int, t0 time.Time) ([]float64, float64) {
	x := make([]float64, op.N())
	for j, v := range basis {
		sparse.Axpy(y[j], v, x)
	}
	mgs(x, deflate)
	sparse.Normalize(x)
	st.ritzNS = time.Since(t0)
	st.matvec(op, w, x, workers)
	mgs(w, deflate)
	sparse.Axpy(-theta, x, w)
	return x, sparse.Norm2(w)
}

// lanczosWork is the storage one solve reuses across its restart cycles:
// the Krylov basis vectors, the length-n work vector w, the Gram–Schmidt
// sequence buffer and the Ritz extraction buffers (the block cycle uses
// only w). A restart allocates no new basis, so peak memory does not grow
// with the cycle count.
type lanczosWork struct {
	vecs [][]float64
	w    []float64
	seq  [][]float64
	ritz ritzWork
}

// vec returns basis slot j of length n, allocating it on first use.
func (ws *lanczosWork) vec(j, n int) []float64 {
	for len(ws.vecs) <= j {
		ws.vecs = append(ws.vecs, make([]float64, n))
	}
	return ws.vecs[j]
}

// lanczosCycle runs one restart cycle from the given starting vector,
// keeping every Krylov vector orthogonal to the deflate vectors, and
// returns the best Ritz pair, its residual norm, and the cycle's work
// counters. The returned Ritz vector is freshly allocated; everything
// else lives in ws.
func lanczosCycle(op Operator, start []float64, deflate [][]float64, opts Options, rng *rand.Rand, ws *lanczosWork) (float64, []float64, float64, cycleStats, error) {
	n := op.N()
	var st cycleStats
	basis := make([][]float64, 0, opts.maxSteps)
	alpha := make([]float64, 0, opts.maxSteps)
	beta := make([]float64, 0, opts.maxSteps)
	workers := opts.matvecWorkers(n)
	selective := opts.selectiveReorth(n)
	var mon *omegaMonitor
	if selective {
		mon = newOmegaMonitor(opts.maxSteps, n)
	}

	v := ws.vec(0, n)
	copy(v, start)
	mgs(v, deflate)
	if sparse.Normalize(v) == 0 {
		// Start vector lies entirely in the deflated space; draw a random one.
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		mgs(v, deflate)
		if sparse.Normalize(v) == 0 {
			return 0, nil, 0, st, errors.New("eigen: cannot find a starting vector outside the deflation space")
		}
	}
	basis = append(basis, v)

	w := ws.w
	// Full reorthogonalization: one Gram–Schmidt run over the basis and
	// the deflation vectors, twice for stability ("twice is enough").
	fullReorth := func() {
		ws.seq = reorthSeq(ws.seq, basis, deflate)
		mgs(w, ws.seq)
	}
	// In selective mode a triggered cleanup also covers the following
	// step: ω estimates for the in-between vector are unreliable until
	// two consecutive vectors are clean.
	reorthNext := false
	for j := 0; j < opts.maxSteps; j++ {
		if opts.Ctx != nil && j%cancelCheckSteps == cancelCheckSteps-1 {
			if err := opts.Ctx.Err(); err != nil {
				return 0, nil, 0, st, err
			}
		}
		vj := basis[j]
		st.matvec(op, w, vj, workers)
		// Deflate, then α_j = v_j·w and w −= α_j·v_j: one Gram–Schmidt run
		// whose last coefficient is α_j.
		ws.seq = append(append(ws.seq[:0], deflate...), vj)
		a := mgs(w, ws.seq)
		alpha = append(alpha, a)
		if j > 0 {
			sparse.Axpy(-beta[j-1], basis[j-1], w)
		}
		t0 := time.Now()
		if !selective {
			fullReorth()
		} else {
			tentative := sparse.Norm2(w)
			degenerate := tentative <= 1e-14*(math.Abs(a)+1)
			if mon.advance(alpha, beta, tentative) > omegaThreshold || reorthNext || degenerate {
				if !reorthNext {
					reorthNext = true
				} else {
					reorthNext = false
				}
				fullReorth()
				mon.reset()
				st.reorthForced++
			} else {
				mgs(w, deflate)
				st.reorthSkipped++
			}
		}
		st.reorthNS += time.Since(t0)
		st.steps++
		bnorm := sparse.Norm2(w)
		if bnorm <= 1e-14*(math.Abs(a)+1) || j == opts.maxSteps-1 {
			break // invariant subspace found or step budget exhausted
		}
		beta = append(beta, bnorm)
		next := ws.vec(j+1, n)
		copy(next, w)
		sparse.Scale(1/bnorm, next)
		basis = append(basis, next)
	}

	t0 := time.Now()
	m := len(alpha)
	theta, y, err := ws.ritz.top(alpha, beta[:min(len(beta), m-1)], workers)
	if err != nil {
		return 0, nil, 0, st, err
	}
	ritz, residual := st.ritzPair(op, basis, theta, y, deflate, w, workers, t0)
	return theta, ritz, residual, st, nil
}
