package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"igpart/internal/hypergraph"
	"igpart/internal/netgen"
)

// pinHasher feeds 64-bit words to FNV-64a.
type pinHasher struct {
	h   hash.Hash64
	buf [8]byte
}

func newPinHasher() *pinHasher { return &pinHasher{h: fnv.New64a()} }

func (p *pinHasher) put(x uint64) {
	binary.LittleEndian.PutUint64(p.buf[:], x)
	p.h.Write(p.buf[:])
}

// trace feeds every SplitRecord: rank, matching size, cut, ratio-cut bits.
func (p *pinHasher) trace(trace []SplitRecord) {
	for _, r := range trace {
		p.put(uint64(r.Rank))
		p.put(uint64(r.MatchingSize))
		p.put(uint64(int64(r.CutNets)))
		p.put(math.Float64bits(r.RatioCut))
	}
}

// sides feeds every module's side of the result's partition.
func (p *pinHasher) sides(res Result) {
	for v := 0; v < res.Partition.NumModules(); v++ {
		p.put(uint64(res.Partition.Side(v)))
	}
}

// result feeds the winning split: BestRank, BestMatching, the metrics
// and the module sides.
func (p *pinHasher) result(res Result) {
	p.put(uint64(res.BestRank))
	p.put(uint64(res.BestMatching))
	p.put(uint64(res.Metrics.CutNets))
	p.put(uint64(res.Metrics.SizeU))
	p.put(uint64(res.Metrics.SizeW))
	p.put(math.Float64bits(res.Metrics.RatioCut))
	p.sides(res)
}

// sweepHash condenses a full sweep into one pinnable integer: every
// SplitRecord (rank, matching size, cut, ratio-cut bits), the winning
// rank and the winning module sides, fed to FNV-64a in that order.
func sweepHash(trace []SplitRecord, res Result) uint64 {
	p := newPinHasher()
	p.trace(trace)
	p.put(uint64(res.BestRank))
	p.sides(res)
	return p.h.Sum64()
}

// pinnedCircuit generates one of the pinned circuits at its pinned scale.
func pinnedCircuit(t *testing.T, name string, scale float64) *hypergraph.Hypergraph {
	t.Helper()
	cfg, ok := netgen.ByName(name)
	if !ok {
		t.Fatalf("%s: preset missing", name)
	}
	h, err := netgen.Generate(cfg.Scaled(scale))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// pinnedRun is what both pin tests read of one circuit: its Fiedler
// order, from Partition at P=1, and the traced full sweep over that order
// at P=1 and at P=4 (index 0 and 1).
type pinnedRun struct {
	h      *hypergraph.Hypergraph
	order  []int
	full   [2]Result
	traces [2][]SplitRecord
}

// pinnedRuns caches pinnedRun by circuit name. It is filled on first use,
// so either test runs alone and the two together solve each circuit's
// eigenproblem and full sweeps once.
var pinnedRuns = map[string]*pinnedRun{}

// pinnedSweep returns the pinnedRun of a pinned circuit.
func pinnedSweep(t *testing.T, name string, scale float64) *pinnedRun {
	t.Helper()
	if r, ok := pinnedRuns[name]; ok {
		return r
	}
	r := &pinnedRun{h: pinnedCircuit(t, name, scale)}
	res, err := Partition(r.h, Options{Parallelism: 1, Trace: &r.traces[0]})
	if err != nil {
		t.Fatalf("%s P=1: %v", name, err)
	}
	r.order, r.full[0] = res.NetOrder, res
	r.full[1], err = PartitionWithOrder(r.h, r.order, Options{Parallelism: 4, Trace: &r.traces[1]})
	if err != nil {
		t.Fatalf("%s P=4: %v", name, err)
	}
	pinnedRuns[name] = r
	return r
}

// sweepPins holds the per-circuit sweep hashes: the nine paper circuits
// at full size and scale10k at a quarter size, all at netgen's default
// seeds. Any change to the sweep kernels — Phase I classification,
// Phase II scoring, the matcher, the shard bootstrap — that moves a
// single trace bit, the winning split or one module's side shows up
// here.
var sweepPins = []struct {
	name  string
	scale float64
	hash  uint64
}{
	{"bm1", 1, 0x88f2b96c32b602bb},
	{"19ks", 1, 0xc0c7fe23834d1205},
	{"Prim1", 1, 0xdb229501b64ce924},
	{"Prim2", 1, 0xb37f70ca3cd146fc},
	{"Test02", 1, 0xb07f8bf5caa55d1c},
	{"Test03", 1, 0x905ccca3263c29a4},
	{"Test04", 1, 0xfb72a44dbb6cd2f5},
	{"Test05", 1, 0x341122e9b62faa5f},
	{"Test06", 1, 0x4b952756e2e5c997},
	{"scale10k", 0.25, 0x276ab5877923e53c},
}

// TestSweepPins runs each pinned circuit through Partition with a trace
// at P=1, sweeps the same order again at P=4, and requires both to hash
// to the pinned value.
func TestSweepPins(t *testing.T) {
	for _, pin := range sweepPins {
		r := pinnedSweep(t, pin.name, pin.scale)
		for i, p := range []int{1, 4} {
			if got := sweepHash(r.traces[i], r.full[i]); got != pin.hash {
				t.Errorf("%s P=%d: sweep hash %#x, pinned %#x", pin.name, p, got, pin.hash)
			}
		}
	}
}

// candidatePins holds, for the circuits of sweepPins, one hash over the
// sweeps that start mid-ordering or skip ranks, all over the circuit's
// Fiedler order: the candidate sweep at 8 and at 32 candidates, a
// rank-list sweep of the full sweep's best rank ± 40 (clamped to the
// ordering) with its trace, and a constrained run — a 45–55% balance
// window with module 0 pinned to U and module n−1 to W — as a full sweep
// and at 12 candidates.
var candidatePins = []struct {
	name  string
	scale float64
	hash  uint64
}{
	{"bm1", 1, 0x9b039fa257034dc6},
	{"19ks", 1, 0x98f6d3f99a1aeb8e},
	{"Prim1", 1, 0xbf4145af78aa6c58},
	{"Prim2", 1, 0xcecd010fda572ccc},
	{"Test02", 1, 0x28b12979853c0ad0},
	{"Test03", 1, 0x2f8874fa250947e7},
	{"Test04", 1, 0x4a476718225bfe48},
	{"Test05", 1, 0xda37b0b84caf641d},
	{"Test06", 1, 0xfe073744e1116c65},
	{"scale10k", 0.25, 0x6a6edd28b8b2b0b6},
}

// candidateHash runs the candidatePins runs of h over order at
// parallelism p, given the full sweep full over the same order, and feeds
// each run's result (and the windowed run's trace) to FNV-64a in that
// order.
func candidateHash(t *testing.T, h *hypergraph.Hypergraph, order []int, full Result, p int) uint64 {
	t.Helper()
	ph := newPinHasher()
	run := func(label string, res Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("P=%d %s: %v", p, label, err)
		}
		ph.result(res)
	}
	for _, c := range []int{8, 32} {
		res, err := PartitionCandidatesWithOrder(h, order, c, Options{Parallelism: p})
		run("candidates", res, err)
	}
	var trace []SplitRecord
	window := rankRange(max(full.BestRank-40, 1), min(full.BestRank+40, h.NumNets()-1))
	res, err := PartitionRanksWithOrder(h, order, window, Options{Parallelism: p, Trace: &trace})
	run("window", res, err)
	ph.trace(trace)

	n := h.NumModules()
	fixed := make([]int8, n)
	for v := range fixed {
		fixed[v] = -1
	}
	fixed[0], fixed[n-1] = 0, 1
	cons := Options{Parallelism: p, Balance: &Balance{MinU: 45 * n / 100, MaxU: 55 * n / 100}, FixedSides: fixed}
	res, err = PartitionWithOrder(h, order, cons)
	run("constrained", res, err)
	res, err = PartitionCandidatesWithOrder(h, order, 12, cons)
	run("constrained candidates", res, err)
	return ph.h.Sum64()
}

// TestCandidatePins runs the candidatePins runs of each circuit at P=1
// and P=4 and requires both to hash to the pinned value.
func TestCandidatePins(t *testing.T) {
	for _, pin := range candidatePins {
		r := pinnedSweep(t, pin.name, pin.scale)
		for i, p := range []int{1, 4} {
			if got := candidateHash(t, r.h, r.order, r.full[i], p); got != pin.hash {
				t.Errorf("%s P=%d: candidate hash %#x, pinned %#x", pin.name, p, got, pin.hash)
			}
		}
	}
}
