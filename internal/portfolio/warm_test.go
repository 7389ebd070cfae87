package portfolio

import (
	"math/rand"
	"testing"

	"igpart/internal/core"
	"igpart/internal/hypergraph"
	"igpart/internal/netgen"
	"igpart/internal/obs"
	"igpart/internal/partition"
)

func genCircuit(t testing.TB, modules, nets int, seed int64) *hypergraph.Hypergraph {
	t.Helper()
	h, err := netgen.Generate(netgen.Config{Name: "eco", Modules: modules, Nets: nets, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// randomDelta perturbs ~frac of the base nets: a third added, a third
// removed, a third pin edits.
func randomDelta(rng *rand.Rand, h *hypergraph.Hypergraph, frac float64) Delta {
	m, n := h.NumNets(), h.NumModules()
	k := int(frac * float64(m))
	if k < 3 {
		k = 3
	}
	var d Delta
	removed := make(map[int]bool)
	for i := 0; i < k/3; i++ {
		e := rng.Intn(m)
		if removed[e] {
			continue
		}
		removed[e] = true
		d.RemoveNets = append(d.RemoveNets, e)
	}
	for i := 0; i < k/3; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			b = (b + 1) % n
		}
		d.AddNets = append(d.AddNets, []int{a, b})
	}
	seen := make(map[PinRef]bool)
	for i := 0; i < k/3; i++ {
		e := rng.Intn(m)
		if removed[e] {
			continue
		}
		v := rng.Intn(n)
		p := PinRef{Net: e, Module: v}
		if seen[p] || hasPin(h, e, v) {
			continue
		}
		seen[p] = true
		d.AddPins = append(d.AddPins, p)
	}
	return d
}

// TestWarmStartParityBattery is the 20-seed ECO battery: a ~3%-of-nets
// delta warm-started from the cached base solve must land within
// tolerance of a cold solve on the same perturbed netlist, and be no
// worse than either half of its rank list swept alone over the same warm
// order — the dense window and the 32 spaced candidates.
func TestWarmStartParityBattery(t *testing.T) {
	const tol = 1.10 // warm ratio cut within 10% of cold
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := genCircuit(t, 350, 380, 1000+seed)
		base, err := core.Partition(h, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: base: %v", seed, err)
		}
		d := randomDelta(rng, h, 0.03)
		if err := d.Validate(h); err != nil {
			t.Fatalf("seed %d: delta: %v", seed, err)
		}
		warm, err := WarmStart(h, base.NetOrder, base.BestRank, d, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: warm: %v", seed, err)
		}
		if warm.Cold {
			t.Fatalf("seed %d: %d touched nets triggered cold fallback", seed, warm.TouchedNets)
		}
		cold, err := core.Partition(warm.H, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: cold: %v", seed, err)
		}
		if warm.Metrics.RatioCut > cold.Metrics.RatioCut*tol+1e-12 {
			t.Errorf("seed %d: warm ratio %.6g vs cold %.6g exceeds %.0f%% tolerance",
				seed, warm.Metrics.RatioCut, cold.Metrics.RatioCut, (tol-1)*100)
		}

		_, netMap := d.Apply(h)
		order, rank := warmOrder(h, base.NetOrder, base.BestRank, warm.H, netMap)
		var window []int
		lo, hi := warmWindow(warm.H.NumNets(), rank, warm.TouchedNets)
		for r := lo; r <= hi; r++ {
			window = append(window, r)
		}
		windowed, err := core.PartitionRanksWithOrder(warm.H, order, window, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: window: %v", seed, err)
		}
		spaced, err := core.PartitionCandidatesWithOrder(warm.H, order, core.DefaultCandidates, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: candidates: %v", seed, err)
		}
		for _, half := range []struct {
			name string
			met  partition.Metrics
		}{{"window", windowed.Metrics}, {"32-candidate", spaced.Metrics}} {
			if betterMetrics(half.met, warm.Metrics) {
				t.Errorf("seed %d: warm %+v is worse than the %s sweep's %+v", seed, warm.Metrics, half.name, half.met)
			}
		}
	}
}

// TestWarmStartEmptyDeltaBitIdentical: with no delta the warm start must
// reproduce the base solve exactly — same metrics, same best rank, same
// side for every module — and, traced, build the conflict adjacency once
// and run one sweep.
func TestWarmStartEmptyDeltaBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		h := genCircuit(t, 300, 330, 2000+seed)
		base, err := core.Partition(h, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace("warm")
		warm, err := WarmStart(h, base.NetOrder, base.BestRank, Delta{}, core.Options{Rec: tr})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Cold {
			t.Fatal("empty delta fell back to cold")
		}
		root := tr.Finish()
		spans := map[string]int{}
		for _, c := range root.Children {
			spans[c.Name]++
		}
		if spans["conflict-adjacency"] != 1 || spans["sweep"]+spans["candidate-sweep"] != 1 {
			t.Fatalf("seed %d: want one conflict-adjacency span and one sweep span, got:\n%s", seed, obs.FormatTree(root))
		}
		if warm.Metrics != base.Metrics {
			t.Fatalf("seed %d: metrics %+v != base %+v", seed, warm.Metrics, base.Metrics)
		}
		if warm.BestRank != base.BestRank {
			t.Fatalf("seed %d: best rank %d != base %d", seed, warm.BestRank, base.BestRank)
		}
		for v := 0; v < h.NumModules(); v++ {
			if warm.Partition.Side(v) != base.Partition.Side(v) {
				t.Fatalf("seed %d: module %d side differs", seed, v)
			}
		}
	}
}

// TestWarmStartColdFallback: a delta past DefaultWarmThreshold must run
// the full solve and say so.
func TestWarmStartColdFallback(t *testing.T) {
	h := genCircuit(t, 200, 220, 7)
	base, err := core.Partition(h, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	d := randomDelta(rng, h, 0.9)
	if err := d.Validate(h); err != nil {
		t.Fatal(err)
	}
	warm, err := WarmStart(h, base.NetOrder, base.BestRank, d, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cold {
		t.Fatalf("%d of %d nets touched did not fall back", warm.TouchedNets, h.NumNets())
	}
	cold, err := core.Partition(warm.H, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Metrics != cold.Metrics {
		t.Fatalf("cold fallback metrics %+v != direct cold %+v", warm.Metrics, cold.Metrics)
	}
}

// TestWarmStartRejects: malformed inputs fail up front.
func TestWarmStartRejects(t *testing.T) {
	h := genCircuit(t, 100, 120, 3)
	base, err := core.Partition(h, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WarmStart(h, base.NetOrder[:10], base.BestRank, Delta{}, core.Options{}); err == nil {
		t.Fatal("short order accepted")
	}
	if _, err := WarmStart(h, base.NetOrder, 0, Delta{}, core.Options{}); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if _, err := WarmStart(h, base.NetOrder, base.BestRank, Delta{RemoveNets: []int{-4}}, core.Options{}); err == nil {
		t.Fatal("invalid delta accepted")
	}
}
