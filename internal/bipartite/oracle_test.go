package bipartite

import (
	"math/rand"
	"testing"
)

// referenceWinners is the whole-graph classification, Classify's oracle:
// an alternating BFS from every unmatched vertex of one side across E_B,
// matching edges pulling the partner into the even set, then the same
// from the other side; matched vertices neither search reached form the
// core. It reads every unmatched vertex's adjacency and resets an O(n)
// mark array, so it costs O(n+e) at every split.
func referenceWinners(m *Matcher) Sets {
	n := len(m.adj)
	const (
		unseen = 0
		even   = 1
		odd    = 2
	)
	mark := make([]uint8, n)
	var s Sets
	sweep := func(fromL bool, evens, odds []int) ([]int, []int) {
		var queue []int
		for v := 0; v < n; v++ {
			if m.inL[v] == fromL && m.match[v] < 0 {
				mark[v] = even
				queue = append(queue, v)
				evens = append(evens, v)
			}
		}
		for qi := 0; qi < len(queue); qi++ {
			x := queue[qi] // even-side vertex
			for _, y := range m.adj[x] {
				if m.inL[y] == m.inL[x] || mark[y] != unseen {
					continue // not an E_B edge, or already reached
				}
				mark[y] = odd
				odds = append(odds, y)
				x2 := m.match[y]
				if x2 >= 0 && mark[x2] == unseen {
					mark[x2] = even
					evens = append(evens, x2)
					queue = append(queue, x2)
				}
			}
		}
		return evens, odds
	}
	s.EvenL, s.OddL = sweep(true, s.EvenL, s.OddL)
	s.EvenR, s.OddR = sweep(false, s.EvenR, s.OddR)
	for v := 0; v < n; v++ {
		if mark[v] == unseen && m.match[v] >= 0 {
			if m.inL[v] {
				s.CoreL = append(s.CoreL, v)
			} else {
				s.CoreR = append(s.CoreR, v)
			}
		}
	}
	return s
}

// checkClassify compares the matcher's classification with the reference
// and checks the bookkeeping it rests on: the kept matched set is exactly
// the matched vertices, the kept unmatched-neighbour counts match a
// recount, and the search read only matched vertices' adjacency.
func checkClassify(t *testing.T, label string, m *Matcher) {
	t.Helper()
	scanned := m.Classify()
	bound, matched := 0, 0
	inSet := make(map[int]bool, len(m.Matched()))
	for _, v := range m.Matched() {
		inSet[v] = true
	}
	for v := range m.adj {
		free := int32(0)
		for _, x := range m.adj[v] {
			if m.InL(x) != m.InL(v) && m.Match(x) < 0 {
				free++
			}
		}
		if m.free[v] != free {
			t.Fatalf("%s: vertex %d keeps %d unmatched neighbours across, recount %d", label, v, m.free[v], free)
		}
		if m.Match(v) >= 0 {
			matched++
			bound += len(m.adj[v])
			if !inSet[v] {
				t.Fatalf("%s: matched vertex %d missing from Matched()", label, v)
			}
		}
	}
	if matched != len(m.Matched()) || matched != 2*m.MatchingSize() {
		t.Fatalf("%s: %d matched vertices, Matched() lists %d, MatchingSize %d",
			label, matched, len(m.Matched()), m.MatchingSize())
	}
	if scanned > bound {
		t.Fatalf("%s: search read %d adjacency entries, matched adjacency holds %d", label, scanned, bound)
	}
	if !sameSets(m.Winners(), referenceWinners(m)) {
		t.Fatalf("%s: classification differs from the whole-graph reference", label)
	}
}

// TestClassifyMatchesReferenceEveryMove checks the output-sensitive search
// against the whole-graph reference after every MoveToR of full sweeps
// over random graphs of varied density, and on NewMatcherAt bootstraps
// taken along the way.
func TestClassifyMatchesReferenceEveryMove(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(120)
		adj := randomGraph(rng, n, (1+rng.Intn(6))*n)
		m := NewMatcher(adj)
		checkClassify(t, "empty split", m)
		inR := make([]bool, n)
		for step, v := range rng.Perm(n) {
			m.MoveToR(v)
			inR[v] = true
			checkClassify(t, "incremental", m)
			if step%7 == 3 {
				checkClassify(t, "bootstrap", NewMatcherAt(adj, inR))
			}
		}
	}
}

// TestClassifyKoenigBruteForce checks the classification's size identity
// |Even(L)| + |Even(R)| + |Core(L)| = |maximum independent set| (König)
// against exhaustive search on instances of up to 22 vertices.
func TestClassifyKoenigBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(15)
		if trial%20 == 0 {
			n = 22
		}
		adj := randomGraph(rng, n, 2*n)
		m := NewMatcher(adj)
		for _, v := range rng.Perm(n)[:1+rng.Intn(n-1)] {
			m.MoveToR(v)
		}
		s := m.Winners()
		got := len(s.EvenL) + len(s.EvenR) + len(s.CoreL)
		if want := BruteForceMIS(adj, sidesOf(m)); got != want {
			t.Fatalf("trial %d (n=%d): |Even(L)|+|Even(R)|+|Core(L)| = %d, brute-force MIS %d",
				trial, n, got, want)
		}
	}
}
