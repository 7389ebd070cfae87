package service

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"

	"igpart"
	"igpart/internal/jobreg"
	"igpart/internal/obs"
)

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDeltaHitsRetainNoNetlist sends one delta 200 times against a
// base of 1000 modules. The first is solved and the other 199 are cache
// hits, which share the first one's applied netlist: each hit may keep
// its job record, not a netlist of its own.
func TestDeltaHitsRetainNoNetlist(t *testing.T) {
	h := genNetlist(t, 1000, 1200, 3)
	e := New(Config{Workers: 1})
	defer shutdownNow(t, e)

	base := solveBase(t, e, h, Options{})
	d := igpart.NetlistDelta{RemoveNets: []int{7}}
	patch := func() Snapshot {
		t.Helper()
		job, err := e.SubmitDelta(base.ID(), d, 0)
		if err != nil {
			t.Fatalf("PATCH: %v", err)
		}
		s := job.Wait(context.Background())
		if s.State != jobreg.StateDone {
			t.Fatalf("PATCH: state %s (err %v), want done", s.State, s.Err)
		}
		return s
	}
	if s := patch(); s.Cached {
		t.Fatal("the first PATCH was a cache hit")
	}
	const hits = 199
	before := liveHeap()
	for i := 0; i < hits; i++ {
		if s := patch(); !s.Cached {
			t.Fatalf("repeat %d missed the cache", i+1)
		}
	}
	grown := int64(liveHeap()) - int64(before)
	t.Logf("live heap grew %d bytes over %d hits (%d per hit)", grown, hits, grown/hits)
	if perHit := grown / hits; perHit > 4<<10 {
		t.Fatalf("each cache-hit PATCH keeps %d bytes of live heap, want at most %d", perHit, 4<<10)
	}
}

// netlistBytes reads the store's service.netlist_bytes gauge.
func netlistBytes(e *Engine) int {
	return int(e.Metrics().Snapshot().Gauges["service.netlist_bytes"])
}

// TestEvictedBaseAnswersUnknown lowers the store's budget to about two
// netlists and solves three bases. The oldest base's netlist is evicted:
// a PATCH against it fails with ErrUnknownBase, which igpartd answers
// with 404, while the job itself stays queryable with its result, which
// GET answers with 200.
func TestEvictedBaseAnswersUnknown(t *testing.T) {
	e := New(Config{Workers: 1})
	defer shutdownNow(t, e)
	d := igpart.NetlistDelta{RemoveNets: []int{4}}

	oldest := solveBase(t, e, genNetlist(t, 150, 180, 1), Options{})
	one := netlistBytes(e)
	if one == 0 {
		t.Fatal("a solved IG-Match base left no netlist in the store")
	}
	e.nets.budget = one * 5 / 2 // test-only hook: no job is running
	var newer []*Job
	for seed := int64(2); seed <= 3; seed++ {
		newer = append(newer, solveBase(t, e, genNetlist(t, 150, 180, seed), Options{}))
	}
	snap := e.Metrics().Snapshot()
	if got := snap.Counters["service.netlist_evictions"]; got != 1 {
		t.Fatalf("netlist_evictions = %d, want 1", got)
	}
	if got := netlistBytes(e); got > e.nets.budget {
		t.Fatalf("the store keeps %d bytes, over its %d-byte budget", got, e.nets.budget)
	}

	if _, err := e.SubmitDelta(oldest.ID(), d, 0); !errors.Is(err, ErrUnknownBase) {
		t.Fatalf("PATCH against the evicted base: err = %v, want ErrUnknownBase", err)
	}
	got, ok := e.Get(oldest.ID())
	if !ok {
		t.Fatal("the evicted base's job record is gone; only its netlist should be")
	}
	if s := got.Snapshot(); s.State != jobreg.StateDone || s.Result == nil {
		t.Fatalf("the evicted base's job: state %s, result %v; want done with its result", s.State, s.Result != nil)
	}
	// Both kept bases are accepted before either PATCH solves. The
	// applied netlists then evict the bases from the store, but each
	// queued job holds the netlist it starts from.
	var patches []*Job
	for _, base := range newer {
		job, err := e.SubmitDelta(base.ID(), d, 0)
		if err != nil {
			t.Fatalf("PATCH against kept base %s: %v", base.ID(), err)
		}
		patches = append(patches, job)
	}
	for _, job := range patches {
		if s := job.Wait(context.Background()); s.State != jobreg.StateDone {
			t.Fatalf("PATCH %s: state %s (err %v)", job.ID(), s.State, s.Err)
		}
	}
}

// TestNoOrderingKeepsNoNetlist solves multilevel and k-way jobs, whose
// results carry no net ordering: their jobs keep no netlist, neither
// their own nor in the store.
func TestNoOrderingKeepsNoNetlist(t *testing.T) {
	h := genNetlist(t, 60, 80, 5)
	e := New(Config{Workers: 1})
	defer shutdownNow(t, e)
	for _, o := range []Options{
		{Algo: AlgoMultilevel, Levels: 2},
		{Algo: AlgoKWay, K: 3, Eps: 0.1},
		{Algo: AlgoKWaySpectral, K: 3, Eps: 0.1},
	} {
		job := solveBase(t, e, h, o)
		var net string
		var kept *igpart.Netlist
		job.Status(func() { net, kept = job.net, job.req.Netlist })
		if net != "" || kept != nil {
			t.Errorf("%s job keeps store key %q and netlist %v, want neither", o.Algo, net, kept != nil)
		}
	}
	if got := netlistBytes(e); got != 0 {
		t.Fatalf("the store keeps %d bytes after multilevel and k-way jobs only, want 0", got)
	}
}

// TestColdJobSortsNetsOnce checks that the netlist store keeps the
// canonical order a cold job sorted at intake for its cache key, rather
// than sorting the nets again when the result is published, and that a
// net-reordered twin answered from the cache at intake keeps its own
// canonical order.
func TestColdJobSortsNetsOnce(t *testing.T) {
	h := genNetlist(t, 80, 100, 6)
	e := New(Config{Workers: 1})
	defer shutdownNow(t, e)
	var intake []int
	inner := e.solveFn
	e.solveFn = func(ctx context.Context, req Request) (*Result, error) {
		intake = req.canon
		return inner(ctx, req)
	}
	stored := func(job *Job) []int {
		t.Helper()
		var net string
		job.Status(func() { net = job.net })
		n, ok := e.nets.get(net)
		if !ok {
			t.Fatal("the job's netlist is not in the store")
		}
		return n.canon
	}
	canon := stored(solveBase(t, e, h, Options{}))
	if len(intake) == 0 || &canon[0] != &intake[0] {
		t.Fatal("the store sorted the nets again instead of keeping the order sorted at intake")
	}
	twin := reversedNets(h)
	if got := stored(solveBase(t, e, twin, Options{})); !slices.Equal(got, twin.CanonicalOrder()) {
		t.Fatalf("the twin's store entry holds canonical order %v, want %v", got, twin.CanonicalOrder())
	}
}

// TestPatchRacesBaseFinish sends PATCHes from several goroutines while
// their base job is still solving: each is refused as not yet
// warm-startable until the base finishes, then accepted and solved or
// answered from the cache. Run it under -race.
func TestPatchRacesBaseFinish(t *testing.T) {
	h := genNetlist(t, 60, 80, 8)
	e := New(Config{Workers: 2})
	defer shutdownNow(t, e)
	base, err := e.Submit(Request{Netlist: h})
	if err != nil {
		t.Fatalf("submit base: %v", err)
	}
	d := igpart.NetlistDelta{RemoveNets: []int{1}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				job, err := e.SubmitDelta(base.ID(), d, 0)
				if errors.Is(err, ErrNotWarmStartable) {
					runtime.Gosched()
					continue
				}
				if err != nil {
					t.Errorf("PATCH: %v", err)
					return
				}
				if s := job.Wait(context.Background()); s.State != jobreg.StateDone || len(s.Result.Sides) != h.NumModules() {
					t.Errorf("PATCH: state %s (err %v), want done over %d modules", s.State, s.Err, h.NumModules())
				}
				return
			}
		}()
	}
	wg.Wait()
}

// TestNetStoreBudget fills a store past its byte budget: it dedups
// equal netlists, evicts the least recently used first, and keeps a
// netlist larger than the whole budget until the next put.
func TestNetStoreBudget(t *testing.T) {
	reg := new(obs.Registry)
	s := newNetStore(reg)
	a, b, c := genNetlist(t, 40, 50, 1), genNetlist(t, 40, 50, 2), genNetlist(t, 40, 50, 3)
	ka := s.put(a, nil)
	s.budget = ka.size * 5 / 2
	if again := s.put(reversedNets(reversedNets(a)), nil); again != ka {
		t.Fatal("an equal netlist was kept twice")
	}
	kb := s.put(b, nil)
	if _, ok := s.get(ka.key); !ok { // a is now more recent than b
		t.Fatal("a evicted before the budget was reached")
	}
	s.put(c, nil)
	if _, ok := s.get(kb.key); ok {
		t.Fatal("b, the least recently used, survived")
	}
	if _, ok := s.get(ka.key); !ok {
		t.Fatal("a, more recent than b, was evicted")
	}
	s.budget = 1
	big := s.put(genNetlist(t, 40, 50, 4), nil)
	if _, ok := s.get(big.key); !ok || s.order.Len() != 1 {
		t.Fatalf("over-budget put: kept %v, %d netlists; want it alone", ok, s.order.Len())
	}
	if got := reg.Snapshot().Counters["service.netlist_evictions"]; got != 3 {
		t.Fatalf("netlist_evictions = %d, want 3", got)
	}
}
