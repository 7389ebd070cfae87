package eigen

import (
	"errors"
	"math"
	"testing"

	"igpart/internal/fault"
	"igpart/internal/obs"
	"igpart/internal/sparse"
)

// pinnedSolve is the bit-level fingerprint of one eigensolve: the hash of
// every eigenvalue's bits, the hash of every vector's bits in order, the
// fallback rung (empty where the entry point reports none), and the
// registry's matvec, restart and fallback counters.
type pinnedSolve struct {
	lambdas, vectors      uint64
	rung                  string
	matvecs, restarts     int64
	retries, denseRescues int64
}

// fingerprint condenses one solve's output and counters into a pinnedSolve.
func fingerprint(vals []float64, vecs [][]float64, rung string, tr *obs.Trace) pinnedSolve {
	var all []float64
	for _, v := range vecs {
		all = append(all, v...)
	}
	c := tr.Metrics().Snapshot().Counters
	return pinnedSolve{vectorHash(vals), vectorHash(all), rung, c["eigen.matvecs"], c["eigen.restarts"],
		c["eigen.fallback_retries"], c["eigen.fallback_jacobi"]}
}

// TestSolverPathPins pins the eigensolver paths TestFiedlerBitPins leaves
// open: block Lanczos under full and selective reorthogonalization, the
// retry rung, SmallestK's deflated sparse path and its dense rescue, and
// block-mode LargestDeflated with a deflation vector. Any change to the
// restart loop, the Ritz assembly or the smallest-pairs driver that moves
// a single rounding or a single matvec shows up here.
func TestSolverPathPins(t *testing.T) {
	prim1 := presetLaplacian(t, "Prim1", 1)
	test02 := presetLaplacian(t, "Test02", 0.6)
	small := presetLaplacian(t, "Prim1", 0.12)
	if prim1.N() != 902 || test02.N() < ReorthAutoCutoff || small.N() > defaultDenseFallback {
		t.Fatalf("generator drift: %d, %d and %d nets", prim1.N(), test02.N(), small.N())
	}
	inject := func(limit int) *fault.Injector {
		return mustInjector(t, nil, fault.Rule{Point: fault.EigenNoConverge, Limit: limit})
	}
	fiedler := func(q *sparse.SymCSR, opts Options) func(*obs.Trace) (pinnedSolve, error) {
		return func(tr *obs.Trace) (pinnedSolve, error) {
			opts.Rec = tr
			res, err := Fiedler(q, opts)
			return fingerprint([]float64{res.Lambda2}, [][]float64{res.Vector}, res.Rung, tr), err
		}
	}

	for _, tc := range []struct {
		name  string
		solve func(*obs.Trace) (pinnedSolve, error)
		want  pinnedSolve
	}{
		{"fiedler-block4-prim1", fiedler(prim1, Options{BlockSize: 4}), pinnedSolve{0xa1d08600e51d444c, 0x46cc6e1827f741c7, RungLanczos, 948, 3, 0, 0}},
		{"fiedler-block4-selective-test02", fiedler(test02, Options{BlockSize: 4, ReorthMode: ReorthSelective}), pinnedSolve{0x708c64f8108a7788, 0x95c99b1f51cb7524, RungLanczosRetry, 2844, 10, 1, 0}},
		{"fiedler-retry-small", fiedler(small, Options{Fault: inject(1)}), pinnedSolve{0x337cd7d24c7e79f8, 0x5d8a8692b0232986, RungLanczosRetry, 108, 0, 1, 0}},
		{"smallestk3-small", func(tr *obs.Trace) (pinnedSolve, error) {
			vals, vecs, err := SmallestK(small, 3, Options{Rec: tr})
			return fingerprint(vals, vecs, "", tr), err
		}, pinnedSolve{0x67a839533c7a780d, 0xbb6ba6c86b6cc6e9, "", 324, 0, 0, 0}},
		{"smallestk3-block2-small", func(tr *obs.Trace) (pinnedSolve, error) {
			vals, vecs, err := SmallestK(small, 3, Options{BlockSize: 2, Rec: tr})
			return fingerprint(vals, vecs, "", tr), err
		}, pinnedSolve{0x14a2f0e0c5b624a4, 0x73dee9691429fd96, "", 639, 0, 0, 0}},
		{"smallestk3-rescue-small", func(tr *obs.Trace) (pinnedSolve, error) {
			vals, vecs, err := SmallestK(small, 3, Options{Fault: inject(0), Rec: tr})
			return fingerprint(vals, vecs, "", tr), err
		}, pinnedSolve{0xc67a60881c2ecee2, 0xf5508d8cb2b240fb, "", 0, 0, 1, 1}},
		{"largest-block2-deflated-small", func(tr *obs.Trace) (pinnedSolve, error) {
			ones := make([]float64, small.N())
			for i := range ones {
				ones[i] = 1 / math.Sqrt(float64(small.N()))
			}
			mu, x, err := LargestDeflated(small, [][]float64{ones}, Options{BlockSize: 2, Seed: 5, Rec: tr})
			return fingerprint([]float64{mu}, [][]float64{x}, "", tr), err
		}, pinnedSolve{0x6f773a9fdb02f165, 0x0e22592c305fd2d5, "", 213, 0, 0, 0}},
	} {
		got, err := tc.solve(obs.NewTrace(tc.name))
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: got %#v, pinned %#v", tc.name, got, tc.want)
		}
	}
}

// TestSolverErrorTexts pins the error texts of an exhausted fallback
// chain: Fiedler returns the retry rung's NoConvergeError unwrapped, with
// the retry's doubled restart budget, and SmallestK prefixes it with the
// pair it failed on.
func TestSolverErrorTexts(t *testing.T) {
	q := presetLaplacian(t, "Prim1", 0.12)
	opts := func() Options {
		return Options{Fault: mustInjector(t, nil, fault.Rule{Point: fault.EigenNoConverge}), DenseFallbackCutoff: -1}
	}
	const injected = "eigen: injected non-convergence (fault eigen.noconverge)"
	_, err := Fiedler(q, opts())
	if err == nil || err.Error() != injected {
		t.Errorf("Fiedler: err %v, want %q", err, injected)
	}
	if nc := (*NoConvergeError)(nil); !errors.As(err, &nc) || nc.Restarts != 16 {
		t.Errorf("Fiedler: err %#v, want a NoConvergeError after 16 restarts", err)
	}
	if _, _, err := SmallestK(q, 3, opts()); err == nil || err.Error() != "eigen: pair 1: "+injected {
		t.Errorf("SmallestK: err %v, want %q", err, "eigen: pair 1: "+injected)
	}
}
