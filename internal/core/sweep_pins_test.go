package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"igpart/internal/netgen"
)

// sweepHash condenses a full sweep into one pinnable integer: every
// SplitRecord (rank, matching size, cut, ratio-cut bits), the winning
// rank and the winning module sides, fed to FNV-64a in that order.
func sweepHash(trace []SplitRecord, res Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, r := range trace {
		put(uint64(r.Rank))
		put(uint64(r.MatchingSize))
		put(uint64(int64(r.CutNets)))
		put(math.Float64bits(r.RatioCut))
	}
	put(uint64(res.BestRank))
	for v := 0; v < res.Partition.NumModules(); v++ {
		put(uint64(res.Partition.Side(v)))
	}
	return h.Sum64()
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
// at P=1 and P=4 and requires both to hash to the pinned value.
func TestSweepPins(t *testing.T) {
	for _, pin := range sweepPins {
		cfg, ok := netgen.ByName(pin.name)
		if !ok {
			t.Fatalf("%s: preset missing", pin.name)
		}
		h, err := netgen.Generate(cfg.Scaled(pin.scale))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 4} {
			var trace []SplitRecord
			res, err := Partition(h, Options{Parallelism: p, Trace: &trace})
			if err != nil {
				t.Fatalf("%s P=%d: %v", pin.name, p, err)
			}
			if got := sweepHash(trace, res); got != pin.hash {
				t.Errorf("%s P=%d: sweep hash %#x, pinned %#x", pin.name, p, got, pin.hash)
			}
		}
	}
}
