package service

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"igpart"
	"igpart/internal/jobreg"
	"igpart/internal/partition"
)

// solveBase submits h with opts and waits for the solve; the returned
// job is a warm-startable base for SubmitDelta tests.
func solveBase(t *testing.T, e *Engine, h *igpart.Netlist, opts Options) *Job {
	t.Helper()
	job, err := e.Submit(Request{Netlist: h, Options: opts})
	if err != nil {
		t.Fatalf("submit base: %v", err)
	}
	if s := job.Wait(context.Background()); s.State != jobreg.StateDone {
		t.Fatalf("base state = %s (err %v), want done", s.State, s.Err)
	}
	return job
}

// smallDelta perturbs a handful of nets of a generated netlist:
// remove net 3, add one net, and move a pin on net 0.
func smallDelta(t *testing.T, h *igpart.Netlist) igpart.NetlistDelta {
	t.Helper()
	pins := h.Pins(0)
	if len(pins) == 0 {
		t.Fatal("net 0 has no pins")
	}
	// A pin (0, mod) not already on net 0.
	add := -1
	on := make(map[int]bool, len(pins))
	for _, v := range pins {
		on[v] = true
	}
	for v := 0; v < h.NumModules(); v++ {
		if !on[v] {
			add = v
			break
		}
	}
	if add < 0 {
		t.Fatal("net 0 covers every module")
	}
	d := igpart.NetlistDelta{
		AddNets:    [][]int{{0, 1, 2}},
		RemoveNets: []int{3},
		AddPins:    []igpart.DeltaPin{{Net: 0, Module: add}},
		RemovePins: []igpart.DeltaPin{{Net: 0, Module: pins[0]}},
	}
	if err := d.Validate(h); err != nil {
		t.Fatalf("smallDelta invalid: %v", err)
	}
	return d
}

func TestSubmitDeltaWarmLifecycle(t *testing.T) {
	h := genNetlist(t, 150, 180, 21)
	e := New(Config{Workers: 2})
	defer shutdownNow(t, e)

	base := solveBase(t, e, h, Options{})
	d := smallDelta(t, h)
	job, err := e.SubmitDelta(base.ID(), d, 0)
	if err != nil {
		t.Fatalf("submit delta: %v", err)
	}
	s := job.Wait(context.Background())
	if s.State != jobreg.StateDone {
		t.Fatalf("delta state = %s (err %v), want done", s.State, s.Err)
	}
	r := s.Result
	if !r.Warm {
		t.Fatalf("%d-net delta fell back cold (threshold should warm-start it)", d.TouchedNets())
	}
	if r.Stages.Name != "solve-delta" {
		t.Fatalf("delta job's root span is %q, want solve-delta", r.Stages.Name)
	}
	if r.TouchedNets != d.TouchedNets() {
		t.Fatalf("result TouchedNets = %d, want %d", r.TouchedNets, d.TouchedNets())
	}
	applied, _ := d.Apply(h)
	if len(r.Sides) != applied.NumModules() {
		t.Fatalf("sides has %d entries, want %d", len(r.Sides), applied.NumModules())
	}
	// The warm result must carry a net ordering so it can itself serve
	// as the base of a further delta (ECO chains).
	if len(r.NetOrder) != applied.NumNets() || r.BestRank < 1 {
		t.Fatalf("warm result not chainable: %d order entries (want %d), rank %d",
			len(r.NetOrder), applied.NumNets(), r.BestRank)
	}
	// Same result contract as any IG-Match solve: a real bipartition
	// (both sides populated; a zero cut is fine — the delta may
	// disconnect a component) no worse than twice the cold ratio cut.
	a, b := 0, 0
	for _, side := range r.Sides {
		if side == 0 {
			a++
		} else {
			b++
		}
	}
	if a == 0 || b == 0 {
		t.Fatalf("degenerate bipartition: %d/%d", a, b)
	}
	direct, err := igpart.IGMatch(applied)
	if err != nil {
		t.Fatalf("direct IGMatch on applied: %v", err)
	}
	if r.Metrics.RatioCut > 2*direct.Metrics.RatioCut {
		t.Fatalf("warm ratio cut %+v far worse than cold %+v", r.Metrics, direct.Metrics)
	}

	// Chain: a further delta against the delta job warm-starts again.
	d2 := igpart.NetlistDelta{RemoveNets: []int{1}}
	if err := d2.Validate(applied); err != nil {
		t.Fatalf("chain delta invalid: %v", err)
	}
	job2, err := e.SubmitDelta(job.ID(), d2, 0)
	if err != nil {
		t.Fatalf("submit chained delta: %v", err)
	}
	if s2 := job2.Wait(context.Background()); s2.State != jobreg.StateDone || !s2.Result.Warm {
		t.Fatalf("chained delta: state %s warm %v, want done+warm", s2.State, s2.Result != nil && s2.Result.Warm)
	}
}

func TestSubmitDeltaRejections(t *testing.T) {
	h := genNetlist(t, 100, 120, 5)
	e := New(Config{Workers: 1})
	defer shutdownNow(t, e)

	d := igpart.NetlistDelta{RemoveNets: []int{0}}
	if _, err := e.SubmitDelta("job-nope", d, 0); !errors.Is(err, ErrUnknownBase) {
		t.Fatalf("unknown base: err = %v, want ErrUnknownBase", err)
	}

	// A multilevel result carries no net ordering — not warm-startable.
	ml := solveBase(t, e, h, Options{Algo: AlgoMultilevel, Levels: 2})
	if _, err := e.SubmitDelta(ml.ID(), d, 0); !errors.Is(err, ErrNotWarmStartable) {
		t.Fatalf("multilevel base: err = %v, want ErrNotWarmStartable", err)
	}

	base := solveBase(t, e, h, Options{})
	bad := igpart.NetlistDelta{RemoveNets: []int{h.NumNets() + 7}}
	if _, err := e.SubmitDelta(base.ID(), bad, 0); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("out-of-range delta: err = %v, want ErrBadRequest", err)
	}
	if _, err := e.SubmitDelta(base.ID(), d, -time.Second); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("negative timeout: err = %v, want ErrBadRequest", err)
	}
}

func TestSubmitDeltaCacheHit(t *testing.T) {
	h := genNetlist(t, 120, 140, 9)
	e := New(Config{Workers: 1, CacheEntries: 16})
	defer shutdownNow(t, e)

	var warmSolves atomic.Int64
	inner := e.solveFn
	e.solveFn = func(ctx context.Context, req Request) (*Result, error) {
		if req.warm != nil {
			warmSolves.Add(1)
		}
		return inner(ctx, req)
	}

	base := solveBase(t, e, h, Options{})
	d := smallDelta(t, h)
	j1, err := e.SubmitDelta(base.ID(), d, 0)
	if err != nil {
		t.Fatalf("first delta: %v", err)
	}
	s1 := j1.Wait(context.Background())
	if s1.State != jobreg.StateDone || s1.Cached {
		t.Fatalf("first delta: state %s cached %v, want done uncached", s1.State, s1.Cached)
	}

	// The same edit set with every list reordered must hit the cache —
	// the delta cache key builds on the canonical encoding.
	shuffled := igpart.NetlistDelta{
		AddNets:    d.AddNets,
		RemoveNets: d.RemoveNets,
		AddPins:    d.AddPins,
		RemovePins: d.RemovePins,
	}
	shuffled.AddNets = [][]int{{2, 0, 1}}
	j2, err := e.SubmitDelta(base.ID(), shuffled, 0)
	if err != nil {
		t.Fatalf("resubmit delta: %v", err)
	}
	s2 := j2.Wait(context.Background())
	if s2.State != jobreg.StateDone || !s2.Cached {
		t.Fatalf("resubmit: state %s cached %v, want done+cached", s2.State, s2.Cached)
	}
	if got := warmSolves.Load(); got != 1 {
		t.Fatalf("warm solve ran %d times, want 1 (second submit must hit cache)", got)
	}
	if s1.Result.Metrics != s2.Result.Metrics {
		t.Fatalf("cached metrics diverge: %+v vs %+v", s1.Result.Metrics, s2.Result.Metrics)
	}
}

// TestSubmitDeltaAnswersItsOwnNetlist sends one index-based PATCH per
// net against a netlist and against its net-reversed twin. The two
// bases share a cold cache entry, yet a delta names nets by index, so
// the two PATCHes remove different nets. Each answer must be a
// partition of its own applied netlist: the metrics it reports are its
// sides' metrics there.
func TestSubmitDeltaAnswersItsOwnNetlist(t *testing.T) {
	h := genNetlist(t, 150, 180, 21)
	rev := igpart.NewBuilder().SetNumModules(h.NumModules())
	for n := h.NumNets() - 1; n >= 0; n-- {
		rev.AddNet(h.Pins(n)...)
	}
	e := New(Config{Workers: 2})
	defer shutdownNow(t, e)

	bases := []*Job{solveBase(t, e, h, Options{}), solveBase(t, e, rev.Build(), Options{})}
	for net := 0; net < 40; net++ {
		d := igpart.NetlistDelta{RemoveNets: []int{net}}
		for i, base := range bases {
			job, err := e.SubmitDelta(base.ID(), d, 0)
			if err != nil {
				t.Fatalf("base %d, remove net %d: %v", i, net, err)
			}
			s := job.Wait(context.Background())
			if s.State != jobreg.StateDone {
				t.Fatalf("base %d, remove net %d: state %s (err %v), want done", i, net, s.State, s.Err)
			}
			applied, _ := d.Apply(base.req.Netlist)
			sides := append([]igpart.Side(nil), s.Result.Sides...)
			if own := igpart.Evaluate(applied, partition.FromSides(sides)); s.Result.Metrics != own {
				t.Errorf("base %d, remove net %d (cached %v): reported %+v, its sides give %+v on its own netlist",
					i, net, s.Cached, s.Result.Metrics, own)
			}
		}
	}
}

// FuzzDeltaRequest throws arbitrary deltas at SubmitDelta: malformed
// ones must come back as typed ErrBadRequest (never a panic or an
// untyped error), and accepted ones must have an order-insensitive
// cache key — reversing every edit list yields the same deltaCacheKey.
func FuzzDeltaRequest(f *testing.F) {
	h, err := igpart.Generate(igpart.GenConfig{Name: "fuzz", Modules: 60, Nets: 80, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	e := New(Config{Workers: 1})
	base, err := e.Submit(Request{Netlist: h})
	if err != nil {
		f.Fatal(err)
	}
	if s := base.Wait(context.Background()); s.State != jobreg.StateDone {
		f.Fatalf("base solve failed: %s", s.State)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		e.Shutdown(ctx)
	})

	f.Add(int16(3), int16(0), int16(5), int16(1), int16(2), int16(7), false)
	f.Add(int16(-1), int16(9), int16(200), int16(0), int16(0), int16(0), true)
	f.Add(int16(0), int16(0), int16(0), int16(0), int16(0), int16(0), false)
	// The engine keeps only its last keepFinished jobs queryable, so a
	// fuzz run that accepts enough deltas prunes the base job. Every
	// iteration therefore deltas against a live base: once the current
	// one is pruned, the same netlist is resubmitted (a cache hit).
	baseID := base.ID()
	f.Fuzz(func(t *testing.T, rmNet, addNetA, addNetB, pinNet, pinModA, pinModB int16, dup bool) {
		if _, ok := e.Get(baseID); !ok {
			fresh, err := e.Submit(Request{Netlist: h})
			if err != nil {
				t.Fatalf("resubmit pruned base: %v", err)
			}
			if s := fresh.Wait(context.Background()); s.State != jobreg.StateDone {
				t.Fatalf("resubmitted base failed: %s", s.State)
			}
			baseID = fresh.ID()
		}
		d := igpart.NetlistDelta{
			AddNets:    [][]int{{int(addNetA), int(addNetB)}},
			RemoveNets: []int{int(rmNet)},
			AddPins:    []igpart.DeltaPin{{Net: int(pinNet), Module: int(pinModA)}},
			RemovePins: []igpart.DeltaPin{{Net: int(pinNet), Module: int(pinModB)}},
		}
		if dup {
			d.RemoveNets = append(d.RemoveNets, int(rmNet))
		}
		job, err := e.SubmitDelta(baseID, d, 0)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("rejection not typed ErrBadRequest: %v", err)
			}
			return
		}
		if s := job.Wait(context.Background()); s.State != jobreg.StateDone {
			t.Fatalf("accepted delta failed: %s (err %v)", s.State, s.Err)
		}
		// Cache-key stability: reversing the edit lists is the same edit
		// set, so the canonical key must not move.
		rev := igpart.NetlistDelta{
			AddNets:    [][]int{{int(addNetB), int(addNetA)}},
			RemoveNets: d.RemoveNets,
			AddPins:    d.AddPins,
			RemovePins: d.RemovePins,
		}
		o := base.req.Options
		if k1, k2 := deltaCacheKey(h, d, o), deltaCacheKey(h, rev, o); k1 != k2 {
			t.Fatalf("cache key order-sensitive: %s != %s", k1, k2)
		}
	})
}
