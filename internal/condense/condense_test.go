package condense

import (
	"math/rand"
	"testing"

	"igpart/internal/hypergraph"
	"igpart/internal/partition"
)

func clustered(k, bridges int, seed int64) *hypergraph.Hypergraph {
	rng := rand.New(rand.NewSource(seed))
	b := hypergraph.NewBuilder()
	b.SetNumModules(2 * k)
	for c := 0; c < 2; c++ {
		base := c * k
		for i := 0; i < k-1; i++ {
			b.AddNet(base+i, base+i+1)
		}
		for e := 0; e < 2*k; e++ {
			b.AddNet(base+rng.Intn(k), base+rng.Intn(k), base+rng.Intn(k))
		}
	}
	for i := 0; i < bridges; i++ {
		b.AddNet(rng.Intn(k), k+rng.Intn(k))
	}
	return b.Build()
}

func TestMatchClustersValidMap(t *testing.T) {
	h := clustered(20, 3, 1)
	cmap, k := MatchClusters(h)
	if len(cmap) != h.NumModules() {
		t.Fatalf("map length %d", len(cmap))
	}
	seen := make([]int, k)
	for _, c := range cmap {
		if c < 0 || c >= k {
			t.Fatalf("cluster %d outside [0,%d)", c, k)
		}
		seen[c]++
	}
	for c, cnt := range seen {
		if cnt == 0 {
			t.Errorf("cluster %d empty", c)
		}
		if cnt > 2 {
			t.Errorf("cluster %d has %d members; matching merges at most 2", c, cnt)
		}
	}
	if k >= h.NumModules() {
		t.Error("matching produced no merges on a dense circuit")
	}
}

func TestClusterPartitionQuality(t *testing.T) {
	h := clustered(30, 1, 5)
	res, err := Partition(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.SizeU == 0 || res.Metrics.SizeW == 0 {
		t.Fatal("improper partition")
	}
	if res.Metrics.CutNets > 4 {
		t.Errorf("cut = %d, want near 1 (planted bridge)", res.Metrics.CutNets)
	}
	if res.CoarseModules >= h.NumModules() {
		t.Errorf("no condensation: coarse=%d fine=%d", res.CoarseModules, h.NumModules())
	}
	if res.Levels < 1 {
		t.Error("no coarsening rounds")
	}
	if got := partition.Evaluate(h, res.Partition); got != res.Metrics {
		t.Errorf("metrics mismatch: %+v vs %+v", got, res.Metrics)
	}
}

func TestClusterSkipRefine(t *testing.T) {
	h := clustered(25, 2, 7)
	plain, err := Partition(h, Options{SkipRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Partition(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if refined.Metrics.RatioCut > plain.Metrics.RatioCut {
		t.Errorf("refined %v worse than unrefined %v", refined.Metrics.RatioCut, plain.Metrics.RatioCut)
	}
}

func TestClusterTooSmall(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.AddNet(0, 1)
	if _, err := Partition(b.Build(), Options{}); err == nil {
		t.Error("accepted tiny circuit")
	}
}

func TestClusterDeterministic(t *testing.T) {
	h := clustered(15, 2, 11)
	a, err := Partition(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics != b.Metrics {
		t.Errorf("nondeterministic: %+v vs %+v", a.Metrics, b.Metrics)
	}
}

func TestTargetRatioRespected(t *testing.T) {
	h := clustered(40, 2, 13)
	res, err := Partition(h, Options{TargetRatio: 0.6, Levels: 5})
	if err != nil {
		t.Fatal(err)
	}
	// One matching round halves at best; with target 0.6 one round should
	// suffice and coarsening must stop at or below 60% plus one round's
	// overshoot allowance.
	if res.CoarseModules > h.NumModules() {
		t.Errorf("coarse %d > fine %d", res.CoarseModules, h.NumModules())
	}
}

func TestMatchByWeight(t *testing.T) {
	// 0–1 is heaviest and must merge first; 1–2 is then blocked; 2–3
	// merges next; 4 survives as a singleton.
	pairs := []WeightedPair{
		{A: 1, B: 2, W: 5},
		{A: 0, B: 1, W: 9},
		{A: 2, B: 3, W: 4},
		{A: 3, B: 3, W: 99}, // self pair must be ignored
	}
	gmap, k := MatchByWeight(5, pairs)
	if k != 3 {
		t.Fatalf("want 3 groups, got %d (map %v)", k, gmap)
	}
	if gmap[0] != gmap[1] || gmap[2] != gmap[3] || gmap[0] == gmap[2] {
		t.Fatalf("wrong grouping: %v", gmap)
	}
	if gmap[4] == gmap[0] || gmap[4] == gmap[2] {
		t.Fatalf("singleton merged: %v", gmap)
	}
}

func TestMatchByWeightDeterministic(t *testing.T) {
	// Equal weights resolve by ascending indices regardless of input order.
	fwd := []WeightedPair{{A: 0, B: 1, W: 1}, {A: 0, B: 2, W: 1}, {A: 1, B: 2, W: 1}}
	rev := []WeightedPair{{A: 1, B: 2, W: 1}, {A: 0, B: 2, W: 1}, {A: 0, B: 1, W: 1}}
	m1, k1 := MatchByWeight(3, fwd)
	m2, k2 := MatchByWeight(3, rev)
	if k1 != k2 {
		t.Fatalf("group counts diverge: %d vs %d", k1, k2)
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("input order changed the matching: %v vs %v", m1, m2)
		}
	}
	if m1[0] != m1[1] {
		t.Fatalf("tie-break should merge 0-1 first: %v", m1)
	}
}
