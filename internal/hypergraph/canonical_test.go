package hypergraph

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// buildPermuted assembles the same set of nets under a net-order
// permutation and per-net pin shuffles driven by rng.
func buildPermuted(t *testing.T, nets [][]int, numModules int, rng *rand.Rand) *Hypergraph {
	t.Helper()
	order := rng.Perm(len(nets))
	b := NewBuilder().SetNumModules(numModules)
	for _, i := range order {
		pins := append([]int(nil), nets[i]...)
		rng.Shuffle(len(pins), func(a, c int) { pins[a], pins[c] = pins[c], pins[a] })
		b.AddNet(pins...)
	}
	return b.Build()
}

func TestCanonicalBytesInvariance(t *testing.T) {
	nets := [][]int{
		{0, 1, 2},
		{2, 3},
		{1, 4, 5, 6},
		{0, 6},
		{3, 4},
		{5, 7, 8},
		{2, 3}, // duplicate net: the multiset must be preserved
	}
	ref := buildPermuted(t, nets, 9, rand.New(rand.NewSource(1)))
	want := ref.CanonicalBytes()
	for seed := int64(2); seed < 12; seed++ {
		got := buildPermuted(t, nets, 9, rand.New(rand.NewSource(seed))).CanonicalBytes()
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: canonical bytes differ under net/pin reordering", seed)
		}
	}
}

func TestCanonicalBytesDistinguishesStructure(t *testing.T) {
	base := func() *Builder {
		b := NewBuilder()
		b.AddNet(0, 1, 2)
		b.AddNet(2, 3)
		return b
	}
	ref := base().Build().CanonicalBytes()

	// A changed pin set must change the bytes.
	b := NewBuilder()
	b.AddNet(0, 1, 3)
	b.AddNet(2, 3)
	if bytes.Equal(b.Build().CanonicalBytes(), ref) {
		t.Fatal("different pin sets produced equal canonical bytes")
	}

	// An extra isolated module must change the bytes.
	if bytes.Equal(base().SetNumModules(5).Build().CanonicalBytes(), ref) {
		t.Fatal("different module counts produced equal canonical bytes")
	}

	// Dropping the duplicate of a repeated net must change the bytes.
	b = base()
	b.AddNet(2, 3)
	dup := b.Build().CanonicalBytes()
	if bytes.Equal(dup, ref) {
		t.Fatal("net multiplicity ignored by canonical bytes")
	}

	// Area weights must change the bytes.
	if bytes.Equal(base().SetWeight(1, 4).Build().CanonicalBytes(), ref) {
		t.Fatal("module weights ignored by canonical bytes")
	}
}

func TestCanonicalBytesIgnoresNames(t *testing.T) {
	plain := NewBuilder()
	plain.AddNet(0, 1)
	plain.AddNet(1, 2)

	named := NewBuilder()
	named.NameModule(0, "alu").NameModule(2, "rom")
	named.AddNamedNet("clk", 0, 1)
	named.AddNamedNet("rst", 1, 2)

	if !bytes.Equal(plain.Build().CanonicalBytes(), named.Build().CanonicalBytes()) {
		t.Fatal("names changed the canonical bytes; they never affect partitioning")
	}
}

// TestNumberedBytes checks that NumberedBytes writes CanonicalBytes'
// encoding in net index order: a netlist whose nets are already sorted
// encodes the same fields either way, pin order never matters, and a
// reordering of the nets changes the bytes.
func TestNumberedBytes(t *testing.T) {
	nets := [][]int{{0, 1, 2}, {0, 6}, {1, 4, 5, 6}, {2, 3}, {2, 3}, {5, 7, 8}}
	sorted := NewBuilder().SetNumModules(9).SetWeight(4, 3)
	shuffled := NewBuilder().SetNumModules(9).SetWeight(4, 3)
	reversed := NewBuilder().SetNumModules(9).SetWeight(4, 3)
	for i, pins := range nets {
		sorted.AddNet(pins...)
		backwards := slices.Clone(pins)
		slices.Reverse(backwards)
		shuffled.AddNet(backwards...)
		reversed.AddNet(nets[len(nets)-1-i]...)
	}
	h := sorted.Build()
	num, canon := h.NumberedBytes(), h.CanonicalBytes()
	if !bytes.Equal(num[len(numberedMagic):], canon[len(canonicalMagic):]) {
		t.Fatal("a sorted netlist's numbered and canonical fields differ")
	}
	if !bytes.Equal(shuffled.Build().NumberedBytes(), num) {
		t.Fatal("pin order changed the numbered bytes")
	}
	if bytes.Equal(num, canon) {
		t.Fatal("numbered and canonical bytes are equal; their magic must tell them apart")
	}
	if !bytes.Equal(reversed.Build().CanonicalBytes(), canon) {
		t.Fatal("net reordering changed the canonical bytes")
	}
	if bytes.Equal(reversed.Build().NumberedBytes(), num) {
		t.Fatal("net reordering left the numbered bytes unchanged")
	}
}

// TestCanonicalOrder checks the order CanonicalBytes writes: nets by
// pin slice, nets with equal pins by index, Canonical returning the
// same order and bytes, and a net-reordered twin holding equal pins at
// every canonical position.
func TestCanonicalOrder(t *testing.T) {
	nets := [][]int{{2, 3}, {0, 6}, {1, 4, 5, 6}, {2, 3}, {0, 1, 2}, {5, 7, 8}}
	b := NewBuilder().SetNumModules(9)
	for _, pins := range nets {
		b.AddNet(pins...)
	}
	h := b.Build()
	if got, want := h.CanonicalOrder(), []int{4, 1, 2, 0, 3, 5}; !slices.Equal(got, want) {
		t.Fatalf("CanonicalOrder = %v, want %v", got, want)
	}
	if order, enc := h.Canonical(); !slices.Equal(order, h.CanonicalOrder()) || !bytes.Equal(enc, h.CanonicalBytes()) {
		t.Fatalf("Canonical = %v and its bytes, want CanonicalOrder and CanonicalBytes", order)
	}
	for seed := int64(1); seed <= 20; seed++ {
		twin := buildPermuted(t, nets, 9, rand.New(rand.NewSource(seed)))
		a, b := h.CanonicalOrder(), twin.CanonicalOrder()
		for c := range a {
			if !slices.Equal(h.Pins(a[c]), twin.Pins(b[c])) {
				t.Fatalf("seed %d: canonical position %d holds %v and %v", seed, c, h.Pins(a[c]), twin.Pins(b[c]))
			}
		}
	}
}
