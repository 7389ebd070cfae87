package hypergraph

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

// paperFigure1 builds the 6-net, 9-module hypergraph of Figure 1 in the
// paper. Modules are labeled 0..8; nets: s1={0,1}, s2={1,2,3}, s3={3,4},
// s4={4,5,6}, s5={6,7}, s6={7,8,0}.
//
// (The exact figure is illustrative; this instance follows its structure:
// six nets arranged in a ring, alternating 2-pin and 3-pin.)
func paperFigure1() *Hypergraph {
	b := NewBuilder()
	b.AddNamedNet("s1", 0, 1)
	b.AddNamedNet("s2", 1, 2, 3)
	b.AddNamedNet("s3", 3, 4)
	b.AddNamedNet("s4", 4, 5, 6)
	b.AddNamedNet("s5", 6, 7)
	b.AddNamedNet("s6", 7, 8, 0)
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	h := paperFigure1()
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got, want := h.NumModules(), 9; got != want {
		t.Errorf("NumModules = %d, want %d", got, want)
	}
	if got, want := h.NumNets(), 6; got != want {
		t.Errorf("NumNets = %d, want %d", got, want)
	}
	if got, want := h.NumPins(), 15; got != want {
		t.Errorf("NumPins = %d, want %d", got, want)
	}
	if got, want := h.NetSize(1), 3; got != want {
		t.Errorf("NetSize(1) = %d, want %d", got, want)
	}
	if got, want := h.Degree(0), 2; got != want {
		t.Errorf("Degree(0) = %d, want %d", got, want)
	}
	if got, want := h.NetName(3), "s4"; got != want {
		t.Errorf("NetName(3) = %q, want %q", got, want)
	}
	if !reflect.DeepEqual(h.Pins(1), []int{1, 2, 3}) {
		t.Errorf("Pins(1) = %v", h.Pins(1))
	}
	if !reflect.DeepEqual(h.Nets(0), []int{0, 5}) {
		t.Errorf("Nets(0) = %v", h.Nets(0))
	}
}

func TestBuilderDedupsPins(t *testing.T) {
	b := NewBuilder()
	b.AddNet(3, 1, 3, 1, 2)
	h := b.Build()
	if !reflect.DeepEqual(h.Pins(0), []int{1, 2, 3}) {
		t.Errorf("Pins(0) = %v, want [1 2 3]", h.Pins(0))
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestIsolatedModules(t *testing.T) {
	b := NewBuilder()
	b.SetNumModules(5)
	b.AddNet(0, 1)
	h := b.Build()
	if got, want := h.NumModules(), 5; got != want {
		t.Fatalf("NumModules = %d, want %d", got, want)
	}
	if h.Degree(4) != 0 {
		t.Errorf("Degree(4) = %d, want 0", h.Degree(4))
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestEmptyHypergraph(t *testing.T) {
	var h Hypergraph
	if h.NumModules() != 0 || h.NumNets() != 0 || h.NumPins() != 0 {
		t.Errorf("zero Hypergraph not empty: %d/%d/%d", h.NumModules(), h.NumNets(), h.NumPins())
	}
	if err := h.Validate(); err != nil {
		t.Errorf("Validate on zero value: %v", err)
	}
	built := NewBuilder().Build()
	if err := built.Validate(); err != nil {
		t.Errorf("Validate on empty build: %v", err)
	}
}

func TestWeights(t *testing.T) {
	b := NewBuilder()
	b.AddNet(0, 1, 2)
	b.SetWeight(1, 7)
	h := b.Build()
	if !h.Weighted() {
		t.Fatal("Weighted() = false")
	}
	if got := h.ModuleWeight(0); got != 1 {
		t.Errorf("default weight = %d, want 1", got)
	}
	if got := h.ModuleWeight(1); got != 7 {
		t.Errorf("weight(1) = %d, want 7", got)
	}
	if got := h.TotalWeight(); got != 9 {
		t.Errorf("TotalWeight = %d, want 9", got)
	}
	u := paperFigure1()
	if u.Weighted() {
		t.Error("unweighted netlist reports Weighted")
	}
	if got := u.TotalWeight(); got != 9 {
		t.Errorf("unweighted TotalWeight = %d, want 9 (module count)", got)
	}
}

func TestClone(t *testing.T) {
	h := paperFigure1()
	c := h.Clone()
	if err := c.Validate(); err != nil {
		t.Fatalf("clone Validate: %v", err)
	}
	c.pins[0][0] = 99 // mutate the clone's storage
	if h.Pins(0)[0] == 99 {
		t.Error("Clone shares pin storage with the original")
	}
}

func TestComputeStats(t *testing.T) {
	h := paperFigure1()
	s := ComputeStats(h)
	if s.Modules != 9 || s.Nets != 6 || s.Pins != 15 {
		t.Fatalf("stats sizes wrong: %+v", s)
	}
	if s.MinNetSize != 2 || s.MaxNetSize != 3 {
		t.Errorf("net size range [%d,%d], want [2,3]", s.MinNetSize, s.MaxNetSize)
	}
	if s.NetSizeHist[2] != 3 || s.NetSizeHist[3] != 3 {
		t.Errorf("net size hist = %v", s.NetSizeHist)
	}
	if s.AvgNetSize != 2.5 {
		t.Errorf("AvgNetSize = %v, want 2.5", s.AvgNetSize)
	}
	rows := s.SizeHistogramRows()
	if !reflect.DeepEqual(rows, [][2]int{{2, 3}, {3, 3}}) {
		t.Errorf("SizeHistogramRows = %v", rows)
	}
	if s.String() == "" {
		t.Error("String() empty")
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder()
	b.SetNumModules(7)
	b.AddNet(0, 1, 2)
	b.AddNet(2, 3)
	b.AddNet(4, 5)
	// module 6 isolated
	h := b.Build()
	comp, n := ConnectedComponents(h)
	if n != 3 {
		t.Fatalf("components = %d, want 3", n)
	}
	if comp[0] != comp[3] {
		t.Errorf("modules 0 and 3 should share a component: %v", comp)
	}
	if comp[4] != comp[5] || comp[4] == comp[0] {
		t.Errorf("modules 4,5 component wrong: %v", comp)
	}
	if comp[6] == comp[0] || comp[6] == comp[4] {
		t.Errorf("module 6 should be its own component: %v", comp)
	}
}

func TestSubHypergraph(t *testing.T) {
	h := paperFigure1()
	keep := make([]bool, h.NumModules())
	for _, v := range []int{0, 1, 2, 3} {
		keep[v] = true
	}
	sub, moduleMap, netMap := SubHypergraph(h, keep)
	if err := sub.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if sub.NumModules() != 4 {
		t.Fatalf("sub modules = %d, want 4", sub.NumModules())
	}
	// Nets surviving (with ≥1 kept pin): s1{0,1}, s2{1,2,3}, s3{3}, s6{0}.
	if sub.NumNets() != 4 {
		t.Fatalf("sub nets = %d, want 4: netMap=%v", sub.NumNets(), netMap)
	}
	if !reflect.DeepEqual(moduleMap, []int{0, 1, 2, 3}) {
		t.Errorf("moduleMap = %v", moduleMap)
	}
	if !reflect.DeepEqual(netMap, []int{0, 1, 2, 5}) {
		t.Errorf("netMap = %v", netMap)
	}
}

func TestContract(t *testing.T) {
	h := paperFigure1()
	// Merge into 3 clusters of 3 consecutive modules each.
	cluster := []int{0, 0, 0, 1, 1, 1, 2, 2, 2}
	coarse, err := Contract(h, cluster, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := coarse.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if coarse.NumModules() != 3 {
		t.Fatalf("coarse modules = %d, want 3", coarse.NumModules())
	}
	// Internal nets s1{0,1}->{0}, s3 spans clusters 1... let's recount:
	// s1{0,1}->c{0}: dropped. s2{1,2,3}->c{0,1}: kept. s3{3,4}->c{1}: dropped.
	// s4{4,5,6}->c{1,2}: kept. s5{6,7}->c{2}: dropped. s6{7,8,0}->c{2,0}: kept.
	if coarse.NumNets() != 3 {
		t.Fatalf("coarse nets = %d, want 3", coarse.NumNets())
	}
	if got := coarse.ModuleWeight(0); got != 3 {
		t.Errorf("cluster 0 weight = %d, want 3", got)
	}

	if _, err := Contract(h, cluster[:3], 3); err == nil {
		t.Error("Contract accepted short cluster map")
	}
	bad := append([]int(nil), cluster...)
	bad[0] = 5
	if _, err := Contract(h, bad, 3); err == nil {
		t.Error("Contract accepted out-of-range cluster index")
	}
}

// randomHypergraph builds a random netlist for property tests.
func randomHypergraph(rng *rand.Rand, maxModules, maxNets int) *Hypergraph {
	n := 2 + rng.Intn(maxModules-1)
	m := 1 + rng.Intn(maxNets)
	b := NewBuilder()
	b.SetNumModules(n)
	for e := 0; e < m; e++ {
		k := 2 + rng.Intn(5)
		pins := make([]int, k)
		for i := range pins {
			pins[i] = rng.Intn(n)
		}
		b.AddNet(pins...)
	}
	return b.Build()
}

func TestRandomHypergraphsValidate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHypergraph(rng, 40, 60)
		return h.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPinIncidenceDuality(t *testing.T) {
	// Sum of net sizes equals sum of module degrees equals NumPins.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHypergraph(rng, 30, 50)
		sizes, degs := 0, 0
		for e := 0; e < h.NumNets(); e++ {
			sizes += h.NetSize(e)
		}
		for v := 0; v < h.NumModules(); v++ {
			degs += h.Degree(v)
		}
		return sizes == degs && sizes == h.NumPins()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestContractPreservesPinsUpperBound(t *testing.T) {
	// Coarse hypergraph can never have more pins than the original.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHypergraph(rng, 30, 50)
		k := 1 + rng.Intn(h.NumModules())
		cluster := make([]int, h.NumModules())
		for v := range cluster {
			cluster[v] = rng.Intn(k)
		}
		// Densify cluster ids.
		seen := map[int]int{}
		for v, c := range cluster {
			if _, ok := seen[c]; !ok {
				seen[c] = len(seen)
			}
			cluster[v] = seen[c]
		}
		coarse, err := Contract(h, cluster, len(seen))
		if err != nil {
			return false
		}
		return coarse.NumPins() <= h.NumPins() && coarse.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestNegativePinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddNet accepted a negative module index")
		}
	}()
	NewBuilder().AddNet(-1, 2)
}

func TestContractNets(t *testing.T) {
	b := NewBuilder()
	b.SetWeight(0, 3)
	b.AddNet(0, 1)
	b.AddNet(1, 2)
	b.AddNet(2, 3)
	b.AddNet(3, 4)
	h := b.Build()
	// Merge nets {0,1} and {2,3}.
	coarse, err := ContractNets(h, []int{0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := coarse.Validate(); err != nil {
		t.Fatalf("coarse hypergraph inconsistent: %v", err)
	}
	if coarse.NumModules() != h.NumModules() {
		t.Fatalf("modules changed: %d -> %d", h.NumModules(), coarse.NumModules())
	}
	if coarse.NumNets() != 2 {
		t.Fatalf("want 2 coarse nets, got %d", coarse.NumNets())
	}
	wantPins := [][]int{{0, 1, 2}, {2, 3, 4}}
	for e, want := range wantPins {
		got := coarse.Pins(e)
		if len(got) != len(want) {
			t.Fatalf("coarse net %d: pins %v, want %v", e, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("coarse net %d: pins %v, want %v", e, got, want)
			}
		}
	}
	if coarse.ModuleWeight(0) != 3 {
		t.Errorf("module weight lost: got %d, want 3", coarse.ModuleWeight(0))
	}
}

func TestContractNetsErrors(t *testing.T) {
	b := NewBuilder()
	b.AddNet(0, 1)
	b.AddNet(1, 2)
	h := b.Build()
	if _, err := ContractNets(h, []int{0}, 1); err == nil {
		t.Error("short net map accepted")
	}
	if _, err := ContractNets(h, []int{0, 2}, 2); err == nil {
		t.Error("out-of-range group accepted")
	}
	if _, err := ContractNets(h, []int{0, 0}, 2); err == nil {
		t.Error("empty coarse net accepted")
	}
}

// TestSizeBytesTracksHeap holds SizeBytes to the live heap a built
// netlist occupies, within the rounding of allocation size classes, and
// checks that names count.
func TestSizeBytesTracksHeap(t *testing.T) {
	live := func() int {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int(ms.HeapAlloc)
	}
	rng := rand.New(rand.NewSource(5))
	b := NewBuilder().SetNumModules(4000)
	for e := 0; e < 6000; e++ {
		pins := make([]int, 2+rng.Intn(5))
		for i := range pins {
			pins[i] = rng.Intn(4000)
		}
		b.AddNet(pins...)
	}
	before := live()
	h := b.Build()
	heap := live() - before
	runtime.KeepAlive(b)
	got := h.SizeBytes()
	t.Logf("SizeBytes %d, live heap %d (%.2f)", got, heap, float64(got)/float64(heap))
	if float64(got) < 0.7*float64(heap) || float64(got) > 1.3*float64(heap) {
		t.Fatalf("SizeBytes = %d, the netlist holds %d bytes of heap", got, heap)
	}
	b.NameModule(0, "alu")
	if named := b.Build().SizeBytes(); named <= got {
		t.Fatalf("a named netlist sizes at %d bytes, the unnamed one at %d", named, got)
	}
}
