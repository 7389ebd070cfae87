// Package bipartite implements the matching machinery behind IG-Match:
// an incrementally maintained maximum matching in the bipartite conflict
// graph B(L, R, E_B) induced by a split of the intersection graph, the
// Even/Odd alternating-path construction that extracts a maximum
// independent set (the "winner" nets), and a Hopcroft–Karp reference
// implementation used as a testing oracle.
//
// Both per-split kernels are output-sensitive. The matcher keeps its set
// of matched vertices current, so the matching size is O(1). Under a
// maximum matching every unmatched vertex is a winner on its own side, so
// the Even/Odd search (Classify) starts from the matched vertices that
// touch an unmatched vertex across the split and reads only matched
// vertices' adjacency: its cost follows |MM(B)|, not the host graph.
package bipartite

// Matcher maintains a maximum matching in the bipartite graph B(L, R, E_B)
// induced by a two-coloring of a fixed host graph: vertices start on side L
// and migrate one at a time to side R (MoveToR); an edge of the host graph
// is in E_B exactly when its endpoints are currently on opposite sides.
//
// After every move the matching is guaranteed maximum for the current B.
// Each MoveToR performs at most two augmenting-path searches, so a full
// sweep of n moves costs O(n·(n+e)) for the matching — the amortized bound
// of Theorem 6. Across moves the matcher also keeps the set of matched
// vertices and, per vertex, the number of unmatched neighbours across the
// split; a vertex that changes side or matched status updates its
// neighbours' counts in O(deg). Classify then reads only the adjacency of
// matched vertices, so the per-split classification costs
// O(Σ deg(v) over matched v) rather than O(n+e).
type Matcher struct {
	adj   [][]int // static host-graph adjacency
	inL   []bool
	match []int // match[v] = current partner, or -1
	augs  int   // augmenting paths applied over the matcher's lifetime

	// matched lists the currently matched vertices in no particular
	// order; mpos[v] is v's index in it, or −1 when v is unmatched.
	// free[v] counts v's unmatched neighbours across the split.
	matched []int
	mpos    []int32
	free    []int32

	// scratch for augmenting-path searches
	visited []int
	stamp   int
	parent  []int
	queue   []int

	// Classify state: cls[v] is matched vertex v's class when
	// cstamp[v] == round; an older stamp means Core.
	cls    []Class
	cstamp []uint32
	round  uint32
}

// NewMatcher creates a Matcher over the host graph given by adjacency lists
// (adj[v] lists the neighbors of v). All vertices start on side L, so E_B is
// empty and the matching is empty.
func NewMatcher(adj [][]int) *Matcher {
	n := len(adj)
	m := newMatcher(adj)
	m.match = make([]int, n)
	for i := range m.inL {
		m.inL[i] = true
		m.match[i] = -1
	}
	m.indexMatched()
	return m
}

// newMatcher allocates a Matcher's per-vertex state; the caller sets the
// sides and the matching, then calls indexMatched.
func newMatcher(adj [][]int) *Matcher {
	n := len(adj)
	return &Matcher{
		adj:     adj,
		inL:     make([]bool, n),
		mpos:    make([]int32, n),
		free:    make([]int32, n),
		visited: make([]int, n),
		parent:  make([]int, n),
		cls:     make([]Class, n),
		cstamp:  make([]uint32, n),
	}
}

// indexMatched rebuilds the matched-vertex list (in vertex order) and the
// unmatched-neighbour counts from the sides and the match table.
func (m *Matcher) indexMatched() {
	m.matched = m.matched[:0]
	for v, p := range m.match {
		m.mpos[v] = -1
		if p >= 0 {
			m.mpos[v] = int32(len(m.matched))
			m.matched = append(m.matched, v)
		}
		m.free[v] = 0
		for _, x := range m.adj[v] {
			if m.inL[x] != m.inL[v] && m.match[x] < 0 {
				m.free[v]++
			}
		}
	}
}

// setMatched records that v just became matched.
func (m *Matcher) setMatched(v int) {
	m.mpos[v] = int32(len(m.matched))
	m.matched = append(m.matched, v)
	m.countAcross(v, -1)
}

// setUnmatched records that v just became unmatched: the last entry of
// the list takes v's slot.
func (m *Matcher) setUnmatched(v int) {
	i := m.mpos[v]
	last := m.matched[len(m.matched)-1]
	m.matched[i] = last
	m.mpos[last] = i
	m.matched = m.matched[:len(m.matched)-1]
	m.mpos[v] = -1
	m.countAcross(v, +1)
}

// countAcross adds d to the unmatched-neighbour count of every neighbour
// of v across the split.
func (m *Matcher) countAcross(v int, d int32) {
	for _, x := range m.adj[v] {
		if m.inL[x] != m.inL[v] {
			m.free[x] += d
		}
	}
}

// NewMatcherAt creates a Matcher over the host graph with vertices already
// split: inR[v] true places v on side R. The matching is seeded from scratch
// with Hopcroft–Karp, so it is maximum for the initial bipartite graph and
// the incremental MoveToR invariant holds from there. This is the shard
// bootstrap of the parallel sweep: a NewMatcherAt at rank k is equivalent to
// a NewMatcher after k MoveToR calls — same matching size and, because the
// Dulmage–Mendelsohn decomposition is canonical over maximum matchings, the
// same Even/Odd/Core classification.
func NewMatcherAt(adj [][]int, inR []bool) *Matcher {
	if len(inR) != len(adj) {
		panic("bipartite: NewMatcherAt split length mismatch")
	}
	m := newMatcher(adj)
	for i := range m.inL {
		m.inL[i] = !inR[i]
	}
	m.augs, m.match = HopcroftKarp(adj, m.inL)
	m.indexMatched()
	return m
}

// Augmentations returns the number of augmenting paths applied over the
// matcher's lifetime — the work metric of the incremental maintenance.
// A Hopcroft–Karp bootstrap (NewMatcherAt) counts one per seeded
// matching edge, so the value is comparable across the serial and
// sharded sweep engines.
func (m *Matcher) Augmentations() int { return m.augs }

// N returns the number of vertices in the host graph.
func (m *Matcher) N() int { return len(m.adj) }

// InL reports whether vertex v is currently on side L.
func (m *Matcher) InL(v int) bool { return m.inL[v] }

// Match returns v's matching partner, or −1 when v is unmatched.
func (m *Matcher) Match(v int) int { return m.match[v] }

// MatchingSize returns the current (maximum) matching size, which equals
// the minimum vertex cover size of B by König's theorem.
func (m *Matcher) MatchingSize() int { return len(m.matched) / 2 }

// Matched returns the currently matched vertices in no particular order.
// The slice is owned by the matcher and valid until the next MoveToR.
func (m *Matcher) Matched() []int { return m.matched }

// MoveToR migrates vertex v from L to R, repairing the matching to be
// maximum for the new bipartite graph. It follows the Phase I pseudocode of
// Figure 5: unmatch v (freeing its former partner u in R), try one
// augmentation from u, then reinsert v on side R and try one augmentation
// from v.
func (m *Matcher) MoveToR(v int) {
	if !m.inL[v] {
		panic("bipartite: MoveToR on a vertex already in R")
	}
	u := m.match[v]
	if u >= 0 {
		m.match[v] = -1
		m.match[u] = -1
		m.setUnmatched(v)
		m.setUnmatched(u)
	}
	// v is unmatched now: its L neighbours gain it as an unmatched
	// neighbour across the split, its R neighbours lose it, and its own
	// count is taken over the L side.
	m.inL[v] = false
	m.free[v] = 0
	for _, x := range m.adj[v] {
		if m.inL[x] {
			m.free[x]++
			if m.match[x] < 0 {
				m.free[v]++
			}
		} else if x != v { // a self-loop never crosses the split
			m.free[x]--
		}
	}
	if u >= 0 {
		m.augmentFromR(u)
	}
	m.augmentFromR(v)
}

// augmentFromR searches for an augmenting path starting at the free vertex
// r ∈ R using BFS over alternating edges (non-matching R→L, matching L→R)
// and applies it if found. Returns whether the matching grew.
func (m *Matcher) augmentFromR(r int) bool {
	if m.inL[r] || m.match[r] >= 0 {
		return false
	}
	m.stamp++
	m.queue = m.queue[:0]
	m.queue = append(m.queue, r)
	m.visited[r] = m.stamp
	for qi := 0; qi < len(m.queue); qi++ {
		y := m.queue[qi] // y ∈ R
		for _, x := range m.adj[y] {
			if !m.inL[x] || m.visited[x] == m.stamp {
				continue // edge not in E_B, or x already reached
			}
			m.visited[x] = m.stamp
			m.parent[x] = y
			if m.match[x] < 0 {
				// Augment: flip the path back to r. Only its two free
				// endpoints, x and r, join the matched set.
				m.augs++
				m.setMatched(x)
				m.setMatched(r)
				for {
					py := m.parent[x]
					next := m.match[py]
					m.match[x] = py
					m.match[py] = x
					if next < 0 {
						return true
					}
					x = next
				}
			}
			y2 := m.match[x]
			if m.visited[y2] != m.stamp {
				m.visited[y2] = m.stamp
				m.parent[y2] = x // informational; R-vertices re-expand via queue
				m.queue = append(m.queue, y2)
			}
		}
	}
	return false
}

// Class is a vertex's place in the alternating-path classification of
// Figure 3 at one split.
type Class uint8

const (
	CoreL Class = iota // matched L-vertex unreachable from any unmatched vertex (B′ ∩ L)
	CoreR              // matched R-vertex unreachable from any unmatched vertex (B′ ∩ R)
	EvenL              // L-vertex at even distance from an unmatched L-vertex: an L winner
	OddL               // R-vertex at odd distance from an unmatched L-vertex: a loser
	EvenR              // R-vertex at even distance from an unmatched R-vertex: an R winner
	OddR               // L-vertex at odd distance from an unmatched R-vertex: a loser
)

// Sets holds the alternating-path classification of Figure 3. Even(L) are
// L-vertices at even distance from an unmatched L-vertex (the L winners,
// containing U_L); Odd(L) are the R-vertices at odd distance on those same
// paths (losers). Even(R)/Odd(R) are symmetric. CoreL/CoreR are the
// vertices of the residual subgraph B′: matched vertices unreachable from
// any unmatched vertex, which Phase II of IG-Match resolves in bulk.
type Sets struct {
	EvenL []int // winners in L (⊇ U_L)
	OddL  []int // losers in R reached from U_L
	EvenR []int // winners in R (⊇ U_R)
	OddR  []int // losers in L reached from U_R
	CoreL []int // B′ ∩ L
	CoreR []int // B′ ∩ R
}

// Classify computes the Even/Odd/Core classification of the current split,
// which Class then reads per vertex until the next MoveToR. It returns the
// number of adjacency entries the search read. The matching must be
// maximum (which Matcher guarantees).
//
// Under a maximum matching every E_B neighbour of an unmatched vertex is
// matched (an unmatched neighbour would be an augmenting edge), and no
// vertex is reachable by alternating paths from unmatched vertices of both
// sides (that would be an augmenting path). So an unmatched vertex is
// always Even on its own side, and the odd vertices adjacent to it are
// exactly the matched vertices with an unmatched neighbour across the
// split — those whose kept unmatched-neighbour count is positive. The
// search starts from those, pulls each one's partner into the even set,
// and expands only matched even vertices: it reads no adjacency but
// theirs. The classification is the canonical Dulmage–Mendelsohn one,
// independent of which maximum matching the matcher holds.
func (m *Matcher) Classify() (scanned int) {
	m.round++
	if m.round == 0 { // stamp wrap-around: clear the stale stamps once
		clear(m.cstamp)
		m.round = 1
	}
	r := m.round
	q := m.queue[:0]
	// reach marks matched y odd and its partner even, on the side of the
	// unmatched vertices they are reachable from.
	reach := func(y int, fromL bool) {
		m.cstamp[y] = r
		p := m.match[y]
		if fromL {
			m.cls[y] = OddL
		} else {
			m.cls[y] = OddR
		}
		if p >= 0 && m.cstamp[p] != r {
			m.cstamp[p] = r
			if fromL {
				m.cls[p] = EvenL
			} else {
				m.cls[p] = EvenR
			}
			q = append(q, p)
		}
	}
	for _, y := range m.matched {
		if m.free[y] > 0 && m.cstamp[y] != r {
			reach(y, !m.inL[y])
		}
	}
	for qi := 0; qi < len(q); qi++ {
		x := q[qi] // matched even vertex
		for _, y := range m.adj[x] {
			scanned++
			if m.inL[y] != m.inL[x] && m.cstamp[y] != r {
				reach(y, m.inL[x])
			}
		}
	}
	m.queue = q
	return scanned
}

// Class returns v's class under the last Classify call; it is valid until
// the next MoveToR.
func (m *Matcher) Class(v int) Class {
	switch {
	case m.match[v] < 0 && m.inL[v]:
		return EvenL
	case m.match[v] < 0:
		return EvenR
	case m.cstamp[v] == m.round:
		return m.cls[v]
	case m.inL[v]:
		return CoreL
	default:
		return CoreR
	}
}

// Winners computes the Even/Odd/Core classification for the current split
// and lists it. The matching must be maximum (which Matcher guarantees).
//
// The returned loser set Odd(L) ∪ Odd(R) is the critical set of Hasan–Liu:
// it is contained in every minimum vertex cover of B and is independent of
// which maximum matching the Matcher currently holds.
func (m *Matcher) Winners() Sets {
	var s Sets
	m.WinnersInto(&s)
	return s
}

// WinnersInto is Winners with caller-owned storage: the slices of s are
// reset and reused, so a sweep calling it once per split allocates only on
// growth. The contents of s are valid until the next call. It runs
// Classify and then lists every vertex in vertex order, so it costs O(n)
// on top of the search.
func (m *Matcher) WinnersInto(s *Sets) {
	m.Classify()
	s.EvenL = s.EvenL[:0]
	s.OddL = s.OddL[:0]
	s.EvenR = s.EvenR[:0]
	s.OddR = s.OddR[:0]
	s.CoreL = s.CoreL[:0]
	s.CoreR = s.CoreR[:0]
	for v := range m.adj {
		switch m.Class(v) {
		case EvenL:
			s.EvenL = append(s.EvenL, v)
		case OddL:
			s.OddL = append(s.OddL, v)
		case EvenR:
			s.EvenR = append(s.EvenR, v)
		case OddR:
			s.OddR = append(s.OddR, v)
		case CoreL:
			s.CoreL = append(s.CoreL, v)
		case CoreR:
			s.CoreR = append(s.CoreR, v)
		}
	}
}

// EdgesInB counts the edges currently in the bipartite graph E_B.
func (m *Matcher) EdgesInB() int {
	k := 0
	for v, nbrs := range m.adj {
		if !m.inL[v] {
			continue
		}
		for _, u := range nbrs {
			if !m.inL[u] {
				k++
			}
		}
	}
	return k
}

// CheckMatching validates internal consistency: symmetry of match pointers
// and that every matched edge crosses the split and exists in the host
// graph. It is a testing aid.
func (m *Matcher) CheckMatching() error {
	for v, p := range m.match {
		if p < 0 {
			continue
		}
		if m.match[p] != v {
			return errMatch(v, p, "asymmetric match")
		}
		if m.inL[v] == m.inL[p] {
			return errMatch(v, p, "matched edge does not cross the split")
		}
		found := false
		for _, u := range m.adj[v] {
			if u == p {
				found = true
				break
			}
		}
		if !found {
			return errMatch(v, p, "matched edge not in host graph")
		}
	}
	return nil
}

type matchError struct {
	v, p int
	msg  string
}

func errMatch(v, p int, msg string) error { return &matchError{v, p, msg} }

func (e *matchError) Error() string {
	return "bipartite: " + e.msg
}
