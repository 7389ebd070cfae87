package service

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"sync"

	"igpart"
	"igpart/internal/obs"
)

// netlistBudget bounds the bytes of netlists the engine keeps for PATCH
// deltas to start from: each netlist's Hypergraph.SizeBytes plus the
// canonical numbering kept beside it. 32 MiB holds 60 to 90 netlists
// the size of Prim2 (3k modules, 3k nets, 13k pins), named or not.
const netlistBudget = 32 << 20

// stored is one netlist as the store keeps it, with its canonical net
// numbering: canon[c] is the net at canonical position c. A result's
// NetOrder lists canonical positions, so the numbering translates it
// to and from the netlist's own nets in O(m).
type stored struct {
	key   string
	h     *igpart.Netlist
	canon []int
	size  int
}

// canonical translates an ordering of the netlist's nets into canonical
// positions.
func (n *stored) canonical(order []int) []int {
	pos := make([]int, len(n.canon))
	for c, e := range n.canon {
		pos[e] = c
	}
	out := make([]int, len(order))
	for i, e := range order {
		out[i] = pos[e]
	}
	return out
}

// numbered translates canonical positions into the netlist's own nets.
func (n *stored) numbered(order []int) []int {
	out := make([]int, len(order))
	for i, c := range order {
		out[i] = n.canon[c]
	}
	return out
}

// netKey is a netlist's store key: SHA-256 of its NumberedBytes. A
// delta names nets by index, so the key tells two numberings of one
// netlist apart.
func netKey(h *igpart.Netlist) string {
	return fmt.Sprintf("%x", sha256.Sum256(h.NumberedBytes()))
}

// netStore keeps one copy of every netlist that a finished job or a
// cached result refers to: an LRU keyed by netKey and bounded by a
// byte budget rather than an entry count. Queued and running jobs hold
// their own netlist; a finished job and a cached result hold only its
// key, so a PATCH against an evicted base finds nothing, as it does for
// a pruned one. The gauge service.netlist_bytes reports the bytes kept
// and the counter service.netlist_evictions the netlists dropped.
type netStore struct {
	mu     sync.Mutex
	budget int // netlistBudget; tests lower it
	bytes  int
	order  *list.List // front = most recent; values are *stored
	byKey  map[string]*list.Element
	reg    *obs.Registry
}

func newNetStore(reg *obs.Registry) *netStore {
	// Register both names up front, so /metrics shows them before the
	// first netlist is kept or evicted.
	reg.Gauge("service.netlist_bytes")
	reg.Counter("service.netlist_evictions")
	return &netStore{budget: netlistBudget, order: list.New(), byKey: make(map[string]*list.Element), reg: reg}
}

// get returns the netlist kept under key and marks it recently used.
func (s *netStore) get(key string) (*stored, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byKey[key]
	if !ok {
		return nil, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*stored), true
}

// put keeps h and returns the kept entry. canon is h's canonical net
// order when the caller sorted it already, or nil. A netlist already
// kept under h's key is marked recently used and returned instead, and
// h is left to the collector; a new netlist keeps canon, or is sorted
// into canonical numbering when canon is nil. Least recently used
// netlists are evicted until the total fits the budget, never the one
// just kept.
func (s *netStore) put(h *igpart.Netlist, canon []int) *stored {
	key := netKey(h)
	if n, ok := s.get(key); ok {
		return n
	}
	if canon == nil {
		canon = h.CanonicalOrder()
	}
	n := &stored{key: key, h: h, canon: canon, size: h.SizeBytes() + 8*len(canon) + len(key)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byKey[key]; ok { // a concurrent put kept it first
		s.order.MoveToFront(el)
		return el.Value.(*stored)
	}
	s.byKey[key] = s.order.PushFront(n)
	s.bytes += n.size
	for s.bytes > s.budget && s.order.Len() > 1 {
		old := s.order.Remove(s.order.Back()).(*stored)
		delete(s.byKey, old.key)
		s.bytes -= old.size
		s.reg.Counter("service.netlist_evictions").Add(1)
	}
	s.reg.Gauge("service.netlist_bytes").Set(float64(s.bytes))
	return n
}
