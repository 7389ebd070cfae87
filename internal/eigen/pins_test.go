package eigen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"igpart/internal/netgen"
	"igpart/internal/netmodel"
	"igpart/internal/sparse"
)

// vectorHash condenses every bit of a vector into one pinnable integer.
func vectorHash(x []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// presetLaplacian builds the intersection-graph Laplacian of a netgen
// preset scaled by f.
func presetLaplacian(t testing.TB, name string, f float64) *sparse.SymCSR {
	t.Helper()
	cfg, ok := netgen.ByName(name)
	if !ok {
		t.Fatalf("netgen preset %s missing", name)
	}
	h, err := netgen.Generate(cfg.Scaled(f))
	if err != nil {
		t.Fatal(err)
	}
	return sparse.Laplacian(netmodel.IntersectionGraph(h, netmodel.IGOptions{}))
}

// TestFiedlerBitPins pins λ₂ and every bit of the Fiedler vector on one
// full-reorthogonalization instance (Prim1, 902 nets, below
// ReorthAutoCutoff) and one selective instance (scale100k at 0.05, 5000
// nets). Any change to the Lanczos cycle that moves a single rounding —
// the tridiagonal QL pass, the Ritz extraction, the Gram–Schmidt kernel,
// the matvec — shows up here as a mismatch.
func TestFiedlerBitPins(t *testing.T) {
	for _, tc := range []struct {
		preset     string
		scale      float64
		nets       int
		lambda2    uint64
		vectorHash uint64
	}{
		{"Prim1", 1, 902, 0x3facc738f478e600, 0x179f4f963f621c83},
		{"scale100k", 0.05, 5000, 0x3fabef95e4bee000, 0x0454cfb23a470ec5},
	} {
		q := presetLaplacian(t, tc.preset, tc.scale)
		if q.N() != tc.nets {
			t.Fatalf("%s: generator drift: %d nets, want %d", tc.preset, q.N(), tc.nets)
		}
		res, err := Fiedler(q, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.preset, err)
		}
		if res.Rung != RungLanczos {
			t.Fatalf("%s: rung %s, want %s", tc.preset, res.Rung, RungLanczos)
		}
		if got := math.Float64bits(res.Lambda2); got != tc.lambda2 {
			t.Errorf("%s: λ₂ bits %#x (%.17g), pinned %#x", tc.preset, got, res.Lambda2, tc.lambda2)
		}
		if got := vectorHash(res.Vector); got != tc.vectorHash {
			t.Errorf("%s: Fiedler vector hash %#x, pinned %#x", tc.preset, got, tc.vectorHash)
		}
	}
}
