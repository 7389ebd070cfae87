// Package hypergraph provides the netlist hypergraph representation used
// throughout the library.
//
// A circuit netlist is modeled as a hypergraph H = (V, E'): vertices are
// modules (cells, gates, blocks) and hyperedges are signal nets, each net
// being the set of modules it connects. Modules and nets are identified by
// dense integer indices; optional names may be attached for I/O and
// reporting.
//
// The representation is bidirectional: each net knows its pins (the modules
// it contains) and each module knows its incident nets. Both directions are
// stored as sorted, duplicate-free index slices, which makes intersection
// and traversal operations cheap and deterministic.
package hypergraph

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
)

// Hypergraph is an immutable netlist hypergraph. Construct one with a
// Builder or one of the parsers in this package; the zero value is an empty
// netlist with no modules and no nets.
type Hypergraph struct {
	pins     [][]int // net index -> sorted module indices
	incident [][]int // module index -> sorted net indices
	numPins  int     // total number of (net, module) incidences

	moduleNames []string // optional; nil means unnamed
	netNames    []string // optional; nil means unnamed

	weights []int // optional module areas; nil means unit areas
}

// NumModules returns the number of modules (hypergraph vertices).
func (h *Hypergraph) NumModules() int { return len(h.incident) }

// NumNets returns the number of signal nets (hyperedges).
func (h *Hypergraph) NumNets() int { return len(h.pins) }

// NumPins returns the total number of pins, i.e. the sum of net sizes.
func (h *Hypergraph) NumPins() int { return h.numPins }

// Pins returns the sorted module indices connected by net e. The returned
// slice is owned by the hypergraph and must not be modified.
func (h *Hypergraph) Pins(e int) []int { return h.pins[e] }

// NetSize returns the number of pins of net e.
func (h *Hypergraph) NetSize(e int) int { return len(h.pins[e]) }

// Nets returns the sorted net indices incident to module v. The returned
// slice is owned by the hypergraph and must not be modified.
func (h *Hypergraph) Nets(v int) []int { return h.incident[v] }

// Degree returns the number of nets incident to module v.
func (h *Hypergraph) Degree(v int) int { return len(h.incident[v]) }

// ModuleName returns the name of module v, or a synthesized "m<v>" if the
// netlist is unnamed.
func (h *Hypergraph) ModuleName(v int) string {
	if h.moduleNames != nil && h.moduleNames[v] != "" {
		return h.moduleNames[v]
	}
	return fmt.Sprintf("m%d", v)
}

// NetName returns the name of net e, or a synthesized "n<e>" if the netlist
// is unnamed.
func (h *Hypergraph) NetName(e int) string {
	if h.netNames != nil && h.netNames[e] != "" {
		return h.netNames[e]
	}
	return fmt.Sprintf("n%d", e)
}

// ModuleWeight returns the area weight of module v (1 if unweighted).
func (h *Hypergraph) ModuleWeight(v int) int {
	if h.weights == nil {
		return 1
	}
	return h.weights[v]
}

// TotalWeight returns the sum of all module weights.
func (h *Hypergraph) TotalWeight() int {
	if h.weights == nil {
		return len(h.incident)
	}
	t := 0
	for _, w := range h.weights {
		t += w
	}
	return t
}

// Weighted reports whether explicit module areas were supplied.
func (h *Hypergraph) Weighted() bool { return h.weights != nil }

// SizeBytes estimates the heap the netlist occupies, from its module,
// net, pin and name counts: both index directions with their slice
// headers, the module weights, and the names with their string headers.
// internal/service budgets the netlists it keeps by it.
func (h *Hypergraph) SizeBytes() int {
	const (
		word         = bits.UintSize / 8
		sliceHeader  = 3 * word
		stringHeader = 2 * word
	)
	n := 2*h.numPins*word + (len(h.pins)+len(h.incident))*sliceHeader + len(h.weights)*word
	for _, names := range [][]string{h.moduleNames, h.netNames} {
		n += len(names) * stringHeader
		for _, s := range names {
			n += len(s)
		}
	}
	return n
}

// Clone returns a deep copy of the hypergraph.
func (h *Hypergraph) Clone() *Hypergraph {
	c := &Hypergraph{numPins: h.numPins}
	c.pins = make([][]int, len(h.pins))
	for i, p := range h.pins {
		c.pins[i] = append([]int(nil), p...)
	}
	c.incident = make([][]int, len(h.incident))
	for i, p := range h.incident {
		c.incident[i] = append([]int(nil), p...)
	}
	if h.moduleNames != nil {
		c.moduleNames = append([]string(nil), h.moduleNames...)
	}
	if h.netNames != nil {
		c.netNames = append([]string(nil), h.netNames...)
	}
	if h.weights != nil {
		c.weights = append([]int(nil), h.weights...)
	}
	return c
}

// Validate checks internal consistency: pin/incidence symmetry, sortedness,
// index bounds, and no duplicate pins. It is primarily a testing aid; all
// constructors in this package produce valid hypergraphs.
func (h *Hypergraph) Validate() error {
	n, m := h.NumModules(), h.NumNets()
	pins := 0
	for e, p := range h.pins {
		for i, v := range p {
			if v < 0 || v >= n {
				return fmt.Errorf("net %d: pin %d out of range [0,%d)", e, v, n)
			}
			if i > 0 && p[i-1] >= v {
				return fmt.Errorf("net %d: pins not strictly sorted at position %d", e, i)
			}
			if !containsSorted(h.incident[v], e) {
				return fmt.Errorf("net %d contains module %d but reverse incidence is missing", e, v)
			}
		}
		pins += len(p)
	}
	rev := 0
	for v, inc := range h.incident {
		for i, e := range inc {
			if e < 0 || e >= m {
				return fmt.Errorf("module %d: net %d out of range [0,%d)", v, e, m)
			}
			if i > 0 && inc[i-1] >= e {
				return fmt.Errorf("module %d: incident nets not strictly sorted at position %d", v, i)
			}
			if !containsSorted(h.pins[e], v) {
				return fmt.Errorf("module %d lists net %d but the net does not contain it", v, e)
			}
		}
		rev += len(inc)
	}
	if pins != rev || pins != h.numPins {
		return fmt.Errorf("pin count mismatch: nets=%d modules=%d cached=%d", pins, rev, h.numPins)
	}
	if h.moduleNames != nil && len(h.moduleNames) != n {
		return errors.New("module name table has wrong length")
	}
	if h.netNames != nil && len(h.netNames) != m {
		return errors.New("net name table has wrong length")
	}
	if h.weights != nil && len(h.weights) != n {
		return errors.New("weight table has wrong length")
	}
	return nil
}

func containsSorted(s []int, x int) bool {
	i := sort.SearchInts(s, x)
	return i < len(s) && s[i] == x
}

// Builder assembles a hypergraph incrementally. Modules are implied by the
// largest index mentioned, or may be reserved explicitly with SetNumModules
// (useful for isolated modules that belong to no net).
type Builder struct {
	numModules  int
	pins        [][]int
	netNames    []string
	moduleNames map[int]string
	weights     map[int]int
	named       bool
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{}
}

// SetNumModules reserves at least n modules, so that modules with no nets
// survive into the built hypergraph.
func (b *Builder) SetNumModules(n int) *Builder {
	if n > b.numModules {
		b.numModules = n
	}
	return b
}

// AddNet appends a net connecting the given modules and returns its index.
// Duplicate pins within the net are merged. A net may be empty or have a
// single pin (such nets can never be cut but do occur in real netlists).
func (b *Builder) AddNet(modules ...int) int {
	p := append([]int(nil), modules...)
	sort.Ints(p)
	p = dedupSorted(p)
	for _, v := range p {
		if v < 0 {
			panic(fmt.Sprintf("hypergraph: negative module index %d", v))
		}
		if v+1 > b.numModules {
			b.numModules = v + 1
		}
	}
	b.pins = append(b.pins, p)
	b.netNames = append(b.netNames, "")
	return len(b.pins) - 1
}

// AddNamedNet is AddNet with a net name attached.
func (b *Builder) AddNamedNet(name string, modules ...int) int {
	e := b.AddNet(modules...)
	b.netNames[e] = name
	if name != "" {
		b.named = true
	}
	return e
}

// NameModule attaches a name to module v.
func (b *Builder) NameModule(v int, name string) *Builder {
	if b.moduleNames == nil {
		b.moduleNames = make(map[int]string)
	}
	b.moduleNames[v] = name
	b.SetNumModules(v + 1)
	if name != "" {
		b.named = true
	}
	return b
}

// SetWeight sets the area weight of module v.
func (b *Builder) SetWeight(v, w int) *Builder {
	if b.weights == nil {
		b.weights = make(map[int]int)
	}
	b.weights[v] = w
	b.SetNumModules(v + 1)
	return b
}

// Build finalizes the hypergraph. The Builder remains usable afterwards
// (Build copies everything it needs).
func (b *Builder) Build() *Hypergraph {
	h := &Hypergraph{}
	h.pins = make([][]int, len(b.pins))
	deg := make([]int, b.numModules)
	for e, p := range b.pins {
		h.pins[e] = append([]int(nil), p...)
		h.numPins += len(p)
		for _, v := range p {
			deg[v]++
		}
	}
	h.incident = make([][]int, b.numModules)
	for v, d := range deg {
		h.incident[v] = make([]int, 0, d)
	}
	for e, p := range h.pins {
		for _, v := range p {
			h.incident[v] = append(h.incident[v], e)
		}
	}
	if b.named {
		h.netNames = append([]string(nil), b.netNames...)
		h.moduleNames = make([]string, b.numModules)
		for v, name := range b.moduleNames {
			h.moduleNames[v] = name
		}
	}
	if len(b.weights) > 0 {
		h.weights = make([]int, b.numModules)
		for v := range h.weights {
			h.weights[v] = 1
		}
		for v, w := range b.weights {
			h.weights[v] = w
		}
	}
	return h
}

func dedupSorted(s []int) []int {
	if len(s) < 2 {
		return s
	}
	out := s[:1]
	for _, x := range s[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
