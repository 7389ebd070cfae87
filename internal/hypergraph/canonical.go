package hypergraph

import (
	"cmp"
	"encoding/binary"
	"slices"
)

// The magic strings version the two encodings; bump one whenever its
// byte layout changes so stale cache entries can never alias fresh
// ones. They also keep a canonical and a numbered encoding from ever
// being equal.
const (
	canonicalMagic = "igpart-canon-v1\n"
	numberedMagic  = "igpart-numbered-v1\n"
)

// CanonicalBytes returns a stable serialization of the netlist's
// partitioning-relevant structure: module count, module area weights
// (when present), and the multiset of net pin sets. The encoding is
// invariant to the order nets were added in and to the order pins were
// listed (pins are stored sorted and deduplicated; nets are emitted
// sorted lexicographically by their pin slices). Module indices are
// preserved; module and net names are excluded — no partitioner in this
// repository reads them.
//
// Two netlists with equal CanonicalBytes are interchangeable inputs for
// every module-partitioning entry point, which makes the hash of these
// bytes a content address for result caching (internal/service keys its
// LRU on SHA-256 of exactly this serialization). The guarantee is on
// module partitions only. Net-indexed outputs — IGMatchResult.NetOrder
// and the BestRank split that cuts it — and net-indexed inputs such as
// an ECO delta's net references refer to the caller's net numbering;
// anything keyed on them must use NumberedBytes, or translate them
// through CanonicalOrder.
func (h *Hypergraph) CanonicalBytes() []byte {
	_, enc := h.Canonical()
	return enc
}

// Canonical returns CanonicalOrder and CanonicalBytes from one sort of
// the nets, for a caller that keys the netlist on its bytes and keeps
// its canonical order too.
func (h *Hypergraph) Canonical() (order []int, enc []byte) {
	order = h.CanonicalOrder()
	return order, h.encode(canonicalMagic, order)
}

// CanonicalOrder returns the net order CanonicalBytes writes: order[c]
// is the net at canonical position c. Nets sort by their pin slices and
// nets with equal pins by index, so a net's canonical position depends
// only on the netlist. Two netlists with equal CanonicalBytes hold nets
// with equal pins at every canonical position, which lets a net-indexed
// value computed on one carry over to the other: internal/service keeps
// result net orderings in canonical positions for that reason.
func (h *Hypergraph) CanonicalOrder() []int {
	order := make([]int, len(h.pins))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := slices.Compare(h.pins[a], h.pins[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// NumberedBytes is CanonicalBytes without the net sort: the same fields
// in the same encoding, with the nets written in index order. Two
// netlists that number the same nets differently encode differently,
// which is what a key over net-indexed data needs: internal/service
// keys an ECO delta job on its base's NumberedBytes, because the
// delta names the base's nets by index.
func (h *Hypergraph) NumberedBytes() []byte {
	return h.encode(numberedMagic, nil)
}

// encode writes magic, the module count, the net count, the module
// weights and each net's pins, visiting the nets in order (nil means
// index order). Uvarint fields are self-delimiting, so the
// concatenation is prefix-free and unambiguous.
func (h *Hypergraph) encode(magic string, order []int) []byte {
	buf := make([]byte, 0, len(magic)+2*h.numPins+16)
	buf = append(buf, magic...)
	buf = binary.AppendUvarint(buf, uint64(len(h.incident)))
	buf = binary.AppendUvarint(buf, uint64(len(h.pins)))
	if h.weights == nil {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		for _, w := range h.weights {
			buf = binary.AppendVarint(buf, int64(w))
		}
	}
	for i := range h.pins {
		p := h.pins[i]
		if order != nil {
			p = h.pins[order[i]]
		}
		buf = binary.AppendUvarint(buf, uint64(len(p)))
		for _, v := range p {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	return buf
}
