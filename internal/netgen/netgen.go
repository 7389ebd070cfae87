// Package netgen generates synthetic benchmark circuits standing in for
// the MCNC Primary/Test suite and the industry examples the paper
// evaluates on (those netlists are not redistributable, and this module is
// offline).
//
// The generator reproduces the structural properties the paper's argument
// rests on:
//
//   - Hierarchical organization. Modules are arranged in a recursive
//     cluster tree mirroring a designer's functional decomposition; each
//     net is anchored at a tree node chosen by descending from the root
//     with probability Locality per level, then connects modules sampled
//     from that node's span. Most nets are deep (local), a thin tail spans
//     high levels — exactly the "natural" structure that gives spectral
//     ratio-cut methods their advantage and makes net-cut probability
//     non-monotone in net size (Table 1's observation).
//   - Empirical net-size distribution. Sizes are drawn from the published
//     Table 1 histogram of the MCNC Primary2 netlist (dominated by 2–3 pin
//     nets, long tail to 37 pins), so intersection-graph sparsity behaves
//     as in the paper.
//   - Benchmark scale. Config presets match the module and net counts of
//     each circuit in Tables 2–3.
package netgen

import (
	"fmt"
	"math/rand"
	"sort"

	"igpart/internal/hypergraph"
)

// SizeBucket is one entry of a net-size histogram.
type SizeBucket struct {
	Size  int
	Count int
}

// Primary2SizeDist is the net-size histogram of the MCNC Primary2 netlist
// as published in Table 1 of the paper (3029 nets total). Every
// generated circuit draws its net sizes from it.
var Primary2SizeDist = []SizeBucket{
	{2, 1835}, {3, 365}, {4, 203}, {5, 192}, {6, 120}, {7, 52}, {8, 14},
	{9, 83}, {10, 14}, {11, 35}, {12, 5}, {13, 3}, {14, 10}, {15, 3},
	{16, 1}, {17, 72}, {18, 1}, {23, 1}, {26, 1}, {29, 1}, {30, 1},
	{31, 1}, {33, 14}, {34, 1}, {37, 1},
}

// The cluster tree splits every span into treeBranch parts until a
// span holds treeLeaf modules or fewer.
const (
	treeBranch = 2
	treeLeaf   = 12
)

// Config parameterizes one synthetic circuit.
type Config struct {
	// Name labels the circuit in reports.
	Name string
	// Modules is the number of modules (vertices).
	Modules int
	// Nets is the number of signal nets (hyperedges).
	Nets int
	// Seed makes generation reproducible.
	Seed int64
	// Locality is the per-level probability of descending deeper in the
	// cluster tree when anchoring a net; higher values mean more local nets
	// and a cheaper natural cut. Default 0.93.
	Locality float64
	// HubProb is the per-net probability of picking up a high-fanout hub
	// module (the global or regional clock/control driver of the net's
	// region). Hub modules accumulate degrees in the hundreds — the
	// structure that stresses clique-model geometry but is discounted by
	// the intersection graph's 1/(d_k−1) weighting. Zero disables hubs
	// (the default); the hub-sensitivity ablation sweeps this knob.
	HubProb float64
}

func (c Config) withDefaults() Config {
	if c.Locality == 0 {
		c.Locality = 0.93
	}
	return c
}

// span is one node of the cluster tree: a contiguous module index range.
type span struct {
	lo, hi   int // modules [lo, hi)
	children []int
}

// buildTree recursively decomposes [0, n) into a cluster tree.
func buildTree(n, branch, leaf int) []span {
	tree := []span{{lo: 0, hi: n}}
	for i := 0; i < len(tree); i++ {
		s := tree[i]
		size := s.hi - s.lo
		if size <= leaf {
			continue
		}
		parts := branch
		if parts > size {
			parts = size
		}
		base := size / parts
		extra := size % parts
		lo := s.lo
		for p := 0; p < parts; p++ {
			sz := base
			if p < extra {
				sz++
			}
			tree[i].children = append(tree[i].children, len(tree))
			tree = append(tree, span{lo: lo, hi: lo + sz})
			lo += sz
		}
	}
	return tree
}

// Generate produces the synthetic circuit described by cfg.
func Generate(cfg Config) (*hypergraph.Hypergraph, error) {
	cfg = cfg.withDefaults()
	if cfg.Modules < 2 {
		return nil, fmt.Errorf("netgen: %q needs at least 2 modules", cfg.Name)
	}
	if cfg.Nets < 1 {
		return nil, fmt.Errorf("netgen: %q needs at least 1 net", cfg.Name)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tree := buildTree(cfg.Modules, treeBranch, treeLeaf)
	parent := make([]int, len(tree))
	depth := make([]int, len(tree))
	for p, s := range tree {
		for _, c := range s.children {
			parent[c] = p
			depth[c] = depth[p] + 1
		}
	}
	// Hub modules: one per tree node of depth ≤ 1 (a global driver plus one
	// regional driver per top-level block), mid-span so they are ordinary
	// modules with extra fanout.
	hubOf := make(map[int]int) // tree node -> hub module
	for idx, s := range tree {
		if depth[idx] <= 1 && s.hi-s.lo >= 2 {
			hubOf[idx] = (s.lo + s.hi) / 2
		}
	}

	// Cumulative size distribution for sampling.
	totalW := 0
	for _, b := range Primary2SizeDist {
		totalW += b.Count
	}
	sampleSize := func() int {
		r := rng.Intn(totalW)
		for _, b := range Primary2SizeDist {
			r -= b.Count
			if r < 0 {
				return b.Size
			}
		}
		return Primary2SizeDist[len(Primary2SizeDist)-1].Size
	}

	bld := hypergraph.NewBuilder()
	bld.SetNumModules(cfg.Modules)

	// Backbone: one bus net spanning each leaf cluster (like a local clock
	// or control line) plus a 2-pin link from each cluster's first module
	// to its parent's first module. Every leaf is internally connected and
	// every child span hangs off its parent's anchor, so the whole circuit
	// is connected (as real designs are) while the backbone consumes only
	// a small fraction of the net budget. Backbone nets count toward it.
	budget := cfg.Nets
	for idx, s := range tree {
		if len(s.children) > 0 {
			continue
		}
		if budget > 1 && s.hi-s.lo >= 2 {
			bus := make([]int, 0, s.hi-s.lo)
			for v := s.lo; v < s.hi; v++ {
				bus = append(bus, v)
			}
			bld.AddNet(bus...)
			budget--
		}
		if idx > 0 && budget > 1 && s.lo != tree[parent[idx]].lo {
			bld.AddNet(s.lo, tree[parent[idx]].lo)
			budget--
		}
	}

	// Track module degrees so the fixup phase can guarantee a minimum
	// degree of 2, as real standard-cell netlists have (every gate has at
	// least an input and an output pin). Without this, degree-1 modules
	// dangling from a single net create "peel off three modules of one
	// net" ratio cuts that no net-partition completion can express —
	// an artifact absent from real circuits.
	deg := make([]int, cfg.Modules)
	leafOf := make([]int, cfg.Modules)
	for idx, s := range tree {
		if len(s.children) > 0 {
			continue
		}
		for v := s.lo; v < s.hi; v++ {
			leafOf[v] = idx
		}
	}
	countNet := func(pins []int) {
		for _, v := range pins {
			deg[v]++
		}
	}
	// Backbone degrees: every module sits on its leaf bus; anchors carry
	// uplinks. Recount from the builder's state via the leaf structure.
	for idx, s := range tree {
		if len(s.children) > 0 {
			continue
		}
		if s.hi-s.lo >= 2 {
			for v := s.lo; v < s.hi; v++ {
				deg[v]++
			}
		}
		if idx > 0 && s.lo != tree[parent[idx]].lo {
			deg[s.lo]++
			deg[tree[parent[idx]].lo]++
		}
	}
	// The fixup phase pairs deficient modules within their leaf, so the
	// budget reserve is Σ_leaf ceil(needy/2), maintained incrementally.
	needyInLeaf := make(map[int]int)
	reserve := 0
	for v, d := range deg {
		if d < 2 {
			needyInLeaf[leafOf[v]]++
		}
	}
	for _, k := range needyInLeaf {
		reserve += (k + 1) / 2
	}
	repair := func(v int) {
		// Called when module v's degree reaches 2.
		l := leafOf[v]
		k := needyInLeaf[l]
		needyInLeaf[l] = k - 1
		if k%2 == 1 {
			reserve--
		}
	}

	// Body: hierarchy-anchored random nets, stopping while enough budget
	// remains to repair every degree-deficient module.
	pins := make([]int, 0, 64)
	for budget > reserve {
		k := sampleSize()
		node := 0
		for len(tree[node].children) > 0 && rng.Float64() < cfg.Locality {
			node = tree[node].children[rng.Intn(len(tree[node].children))]
		}
		// Ensure the anchor span can host k distinct modules.
		for tree[node].hi-tree[node].lo < k && node != 0 {
			node = parent[node]
		}
		if tree[node].hi-tree[node].lo < k {
			k = tree[node].hi - tree[node].lo // circuit smaller than the sampled net
		}
		s := tree[node]
		pins = pins[:0]
		seen := map[int]bool{}
		for len(pins) < k {
			v := s.lo + rng.Intn(s.hi-s.lo)
			if !seen[v] {
				seen[v] = true
				pins = append(pins, v)
			}
		}
		// Regional hub pickup: the net is driven by the hub of its nearest
		// depth-≤1 ancestor with probability HubProb.
		if rng.Float64() < cfg.HubProb {
			hn := node
			for depth[hn] > 1 {
				hn = parent[hn]
			}
			if hub, ok := hubOf[hn]; ok && !seen[hub] {
				seen[hub] = true
				pins = append(pins, hub)
			}
		}
		bld.AddNet(pins...)
		budget--
		for _, v := range pins {
			if deg[v] == 1 {
				repair(v)
			}
		}
		countNet(pins)
	}

	// Fixup: pair remaining degree-deficient modules with 2-pin nets,
	// preferring partners inside the same leaf to preserve locality.
	var needy []int
	for v, d := range deg {
		if d < 2 {
			needy = append(needy, v)
		}
	}
	for i := 0; i < len(needy) && budget > 0; {
		v := needy[i]
		if deg[v] >= 2 {
			i++
			continue
		}
		partner := -1
		for j := i + 1; j < len(needy); j++ {
			if deg[needy[j]] < 2 && leafOf[needy[j]] == leafOf[v] {
				partner = needy[j]
				break
			}
		}
		if partner < 0 {
			// Any module in the same leaf other than v.
			s := tree[leafOf[v]]
			if s.hi-s.lo < 2 {
				i++
				continue
			}
			for {
				partner = s.lo + rng.Intn(s.hi-s.lo)
				if partner != v {
					break
				}
			}
		}
		bld.AddNet(v, partner)
		deg[v]++
		deg[partner]++
		budget--
		i++
	}
	// Spend any leftover budget on local 2-pin filler nets.
	for budget > 0 {
		leaf := tree[leafOf[rng.Intn(cfg.Modules)]]
		if leaf.hi-leaf.lo < 2 {
			continue
		}
		a := leaf.lo + rng.Intn(leaf.hi-leaf.lo)
		b := leaf.lo + rng.Intn(leaf.hi-leaf.lo)
		if a == b {
			continue
		}
		bld.AddNet(a, b)
		budget--
	}
	return bld.Build(), nil
}

// Benchmarks lists the nine circuits of Tables 2–3 with module and net
// counts matching the originals (MCNC Primary/Test plus the two industry
// examples bm1 and 19ks reported by Wei–Cheng).
var Benchmarks = []Config{
	{Name: "bm1", Modules: 882, Nets: 903, Seed: 101},
	{Name: "19ks", Modules: 2844, Nets: 3282, Seed: 102},
	{Name: "Prim1", Modules: 833, Nets: 902, Seed: 103},
	{Name: "Prim2", Modules: 3014, Nets: 3029, Seed: 104},
	{Name: "Test02", Modules: 1663, Nets: 1720, Seed: 105},
	{Name: "Test03", Modules: 1607, Nets: 1618, Seed: 106},
	{Name: "Test04", Modules: 1515, Nets: 1658, Seed: 107},
	{Name: "Test05", Modules: 2595, Nets: 2750, Seed: 108},
	{Name: "Test06", Modules: 1752, Nets: 1541, Seed: 109},
}

// ScaleBenchmarks lists the large synthetic circuits behind the scale
// benchmarks (ROADMAP: 10⁵–10⁶-net inputs solved in seconds). Module
// counts keep the ~0.99 modules-per-net ratio of Primary2 so structural
// properties (IG sparsity, net-size mix) carry over; only the scale
// changes.
var ScaleBenchmarks = []Config{
	{Name: "scale10k", Modules: 9_900, Nets: 10_000, Seed: 210},
	{Name: "scale30k", Modules: 29_700, Nets: 30_000, Seed: 211},
	{Name: "scale100k", Modules: 99_000, Nets: 100_000, Seed: 212},
	{Name: "scale300k", Modules: 297_000, Nets: 300_000, Seed: 213},
	{Name: "scale1M", Modules: 990_000, Nets: 1_000_000, Seed: 214},
}

// ByName returns the benchmark Config with the given name, searching the
// paper suite first, then the scale presets.
func ByName(name string) (Config, bool) {
	for _, c := range Benchmarks {
		if c.Name == name {
			return c, true
		}
	}
	for _, c := range ScaleBenchmarks {
		if c.Name == name {
			return c, true
		}
	}
	return Config{}, false
}

// Names returns the benchmark names in table order.
func Names() []string {
	names := make([]string, len(Benchmarks))
	for i, c := range Benchmarks {
		names[i] = c.Name
	}
	return names
}

// scaled returns cfg with module and net counts scaled by f (at least 2
// modules / 1 net), used to run the experiment suite at reduced size.
func (c Config) scaled(f float64) Config {
	s := c
	s.Modules = int(float64(c.Modules) * f)
	if s.Modules < 2 {
		s.Modules = 2
	}
	s.Nets = int(float64(c.Nets) * f)
	if s.Nets < 1 {
		s.Nets = 1
	}
	return s
}

// Scaled exposes scaled for harness use.
func (c Config) Scaled(f float64) Config { return c.scaled(f) }

// SortedSizes returns the distinct net sizes of dist in ascending order.
func SortedSizes(dist []SizeBucket) []int {
	sizes := make([]int, len(dist))
	for i, b := range dist {
		sizes[i] = b.Size
	}
	sort.Ints(sizes)
	return sizes
}
