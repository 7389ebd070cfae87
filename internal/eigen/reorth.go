package eigen

import (
	"fmt"
	"math"

	"igpart/internal/sparse"
)

// ReorthMode selects the reorthogonalization strategy of the Lanczos
// engines. Full reorthogonalization re-projects every new Krylov vector
// against the whole basis (O(n·j) per step j) — robust but the dominant
// cost at scale. Selective mode tracks the estimated loss of
// orthogonality with Simon's ω-recurrence and re-projects only when the
// estimate crosses √ε, skipping the O(n·j) work on the (typically vast)
// majority of steps. Correctness never rests on the estimate: restart
// acceptance always checks the true residual ‖op·x − θx‖, so a degraded
// basis can cost extra restarts but never a wrong eigenpair, and the
// Fiedler retry rung escalates to full reorthogonalization.
type ReorthMode int

const (
	// ReorthAuto (the default) picks per solve: selective once the
	// dimension reaches ReorthAutoCutoff, full below it — small solves
	// keep their historical bit-exact behavior, large solves get the
	// O(n·j)→O(n) step cost reduction.
	ReorthAuto ReorthMode = iota
	// ReorthFull always re-projects against the whole basis ("twice is
	// enough"), the historical behavior.
	ReorthFull
	// ReorthSelective always runs the ω-monitored selective scheme.
	ReorthSelective
)

// ReorthAutoCutoff is the dimension from which ReorthAuto selects the
// selective scheme.
const ReorthAutoCutoff = 1024

// String implements fmt.Stringer, using the -reorth flag spellings.
func (m ReorthMode) String() string {
	switch m {
	case ReorthAuto:
		return "auto"
	case ReorthFull:
		return "full"
	case ReorthSelective:
		return "selective"
	default:
		return fmt.Sprintf("ReorthMode(%d)", int(m))
	}
}

// ParseReorthMode maps the flag spellings "auto", "full" and
// "selective" (empty = auto) to a ReorthMode.
func ParseReorthMode(s string) (ReorthMode, error) {
	switch s {
	case "", "auto":
		return ReorthAuto, nil
	case "full":
		return ReorthFull, nil
	case "selective":
		return ReorthSelective, nil
	default:
		return ReorthAuto, fmt.Errorf("eigen: unknown reorth mode %q (want auto, full or selective)", s)
	}
}

// mgs is the package's one modified Gram–Schmidt kernel: it removes from
// w its component along each vector of vs in turn, w −= (v·w)v, and
// returns the last coefficient v·w. Each axpy is fused with the next
// vector's dot product into a single pass over w. Both keep the element
// order k = 0…n−1 of sparse.Axpy and sparse.Dot, and the dot reads each
// w[k] right after its update, as a separate Dot pass would, so the
// result is bit-identical to `for v in vs: Axpy(−Dot(v, w), v, w)`.
func mgs(w []float64, vs [][]float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := sparse.Dot(vs[0], w)
	last := len(vs) - 1
	for j, v := range vs[:last] {
		a := -c
		v = v[:len(w)]
		next := vs[j+1][:len(w)]
		s := 0.0
		for k, x := range v {
			w[k] += a * x
			s += next[k] * w[k]
		}
		c = s
	}
	sparse.Axpy(-c, vs[last], w)
	return c
}

// reorthSeq fills buf with the full-reorthogonalization sequence for mgs:
// the vectors of vs and then the deflation vectors, twice ("twice is
// enough").
func reorthSeq(buf, vs, deflate [][]float64) [][]float64 {
	buf = buf[:0]
	for pass := 0; pass < 2; pass++ {
		buf = append(buf, vs...)
		buf = append(buf, deflate...)
	}
	return buf
}

// selectiveReorth resolves Options.ReorthMode against the dimension.
func (o Options) selectiveReorth(n int) bool {
	switch o.ReorthMode {
	case ReorthFull:
		return false
	case ReorthSelective:
		return true
	default:
		return n >= ReorthAutoCutoff
	}
}

// machEps is the float64 machine epsilon (2⁻⁵²).
const machEps = 2.220446049250313e-16

// omegaThreshold is the loss-of-orthogonality bound √ε: semiorthogonality
// |vᵢ·vⱼ| ≤ √ε is the weakest condition under which the Ritz values of
// the tridiagonal projection still carry full working accuracy (Simon
// 1984), so the monitor triggers reorthogonalization exactly when the
// estimate crosses it.
var omegaThreshold = math.Sqrt(machEps)

// omegaMonitor maintains Simon's ω-recurrence, a running estimate of the
// inner products ω_{j,i} ≈ v_j·v_i between Krylov basis vectors, driven
// only by the scalars (α, β) the iteration already computes — O(j) per
// step instead of the O(n·j) of measuring the products. The recurrence
// mirrors the three-term Lanczos relation:
//
//	β_j·ω_{j+1,i} = β_i·ω_{j,i+1} + (α_i − α_j)·ω_{j,i}
//	              + β_{i−1}·ω_{j,i−1} − β_{j−1}·ω_{j−1,i} + O(ε)
//
// seeded with ω_{j,j} = 1 and ω_{j+1,j} = ε·√n for adjacent pairs.
type omegaMonitor struct {
	psi  float64 // adjacent-pair seed ε·√n
	prev []float64
	cur  []float64
	next []float64
}

// newOmegaMonitor sizes the monitor for up to maxSteps Krylov steps on an
// n-dimensional operator.
func newOmegaMonitor(maxSteps, n int) *omegaMonitor {
	m := &omegaMonitor{
		psi:  machEps * math.Sqrt(float64(n)),
		prev: make([]float64, 0, maxSteps+2),
		cur:  make([]float64, 1, maxSteps+2),
		next: make([]float64, 0, maxSteps+2),
	}
	m.cur[0] = 1 // ω_{0,0}
	return m
}

// advance pushes the recurrence one step. It is called at Krylov step j
// with the coefficient history alpha[0..j], beta[0..j-1] and the
// tentative β_j (the norm of the candidate vector before any
// reorthogonalization), and returns the resulting estimate
// max_{i ≤ j−1} |ω_{j+1,i}| — the monitor's bound on how far the new
// vector has drifted from the older basis. A degenerate β_j returns +Inf
// so the caller reorthogonalizes before trusting anything.
func (m *omegaMonitor) advance(alpha, beta []float64, betaJ float64) float64 {
	j := len(alpha) - 1
	maxOmega := 0.0
	m.next = m.next[:j+2]
	if betaJ > 0 && !math.IsInf(betaJ, 0) && !math.IsNaN(betaJ) {
		aj := alpha[j]
		var betaJm1 float64
		if j > 0 {
			betaJm1 = beta[j-1]
		}
		for i := 0; i <= j-1; i++ {
			t := beta[i]*m.cur[i+1] + (alpha[i]-aj)*m.cur[i] - betaJm1*m.prev[i]
			if i > 0 {
				t += beta[i-1] * m.cur[i-1]
			}
			w := (t + math.Copysign(machEps*(beta[i]+betaJ), t)) / betaJ
			m.next[i] = w
			if a := math.Abs(w); a > maxOmega {
				maxOmega = a
			}
		}
	} else {
		for i := 0; i <= j-1; i++ {
			m.next[i] = omegaThreshold // unknown: force a cleanup
		}
		maxOmega = math.Inf(1)
	}
	m.next[j] = m.psi
	m.next[j+1] = 1
	m.prev, m.cur, m.next = m.cur, m.next, m.prev[:0]
	return maxOmega
}

// reset records that the newest basis vector has just been fully
// reorthogonalized: its estimated inner products against the older basis
// drop back to the round-off floor.
func (m *omegaMonitor) reset() {
	for i := 0; i < len(m.cur)-1; i++ {
		m.cur[i] = m.psi
	}
}
