package engine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"igpart/internal/core"
	"igpart/internal/eigen"
	"igpart/internal/features"
	"igpart/internal/hypergraph"
	"igpart/internal/multiway"
	"igpart/internal/netgen"
	"igpart/internal/netmodel"
	"igpart/internal/obs"
	"igpart/internal/partition"
	"igpart/internal/portfolio"
)

func genCircuit(t testing.TB, modules, nets int, seed int64) *hypergraph.Hypergraph {
	t.Helper()
	h, err := netgen.Generate(netgen.Config{Name: "engine", Modules: modules, Nets: nets, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestEveryEngineRuns runs each table entry on one circuit and holds its
// outcome to the shape the entry promises: a bipartition whose reported
// metrics are those of its partition, or k parts whose metrics are
// those of its part assignment.
func TestEveryEngineRuns(t *testing.T) {
	h := genCircuit(t, 120, 140, 3)
	tr := obs.NewTrace("engines")
	for _, e := range Engines() {
		t.Run(e.Name, func(t *testing.T) {
			out, err := e.Run(h, Spec{Pipeline: Pipeline{Seed: 7, Rec: tr}, K: 3, Eps: 0.1, Starts: 2})
			if err != nil {
				t.Fatal(err)
			}
			if e.KWay {
				if out.Partition != nil || out.KWay.K != 3 {
					t.Fatalf("k-way outcome: partition %v, k=%d", out.Partition, out.KWay.K)
				}
				want := multiway.Evaluate(h, out.KWay.Part, 3)
				if out.KWay.SpanningNets != want.SpanningNets || out.KWay.RatioValue != want.RatioValue {
					t.Fatalf("reported %+v, re-evaluated %+v", out.KWay, want)
				}
				return
			}
			if out.Partition == nil || out.KWay.Part != nil {
				t.Fatalf("bipartition outcome: partition %v, parts %v", out.Partition, out.KWay.Part)
			}
			if got := partition.Evaluate(h, out.Partition); got != out.Metrics {
				t.Fatalf("reported %+v, re-evaluated %+v", out.Metrics, got)
			}
		})
	}
}

// TestOutcomeCarriesEachEnginesState checks the lifts: the sweep state
// of igmatch, the V-cycle's levels, the race's winner and features.
func TestOutcomeCarriesEachEnginesState(t *testing.T) {
	h := genCircuit(t, 150, 170, 5)
	ig, err := Run(IGMatch, h, Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if ig.BestRank < 1 || len(ig.NetOrder) != h.NumNets() || ig.Lambda2 <= 0 || ig.BestMatching < ig.Metrics.CutNets {
		t.Fatalf("igmatch sweep state: rank %d, %d-net order, λ₂ %g, bound %d for %d cut",
			ig.BestRank, len(ig.NetOrder), ig.Lambda2, ig.BestMatching, ig.Metrics.CutNets)
	}
	cand, err := Run(IGMatch, h, Spec{Candidates: 8})
	if err != nil {
		t.Fatal(err)
	}
	if cand.Metrics.RatioCut < ig.Metrics.RatioCut {
		t.Fatalf("8 candidates beat the full sweep: %g < %g", cand.Metrics.RatioCut, ig.Metrics.RatioCut)
	}
	ml, err := Run(Multilevel, h, Spec{Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ml.Levels < 1 || ml.CoarsestNets < 1 || ml.Lambda2 <= 0 || ml.NetOrder != nil {
		t.Fatalf("multilevel outcome: %d levels, %d coarsest nets, λ₂ %g, order %v",
			ml.Levels, ml.CoarsestNets, ml.Lambda2, ml.NetOrder)
	}
	if ml.Metrics.RatioCut > ml.CoarsestOnInput.RatioCut {
		t.Fatalf("V-cycle %g worse than its coarsest solution %g", ml.Metrics.RatioCut, ml.CoarsestOnInput.RatioCut)
	}
	race, err := Run(Portfolio, h, Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if r := race.Race; r.Winner == "" || r.Features.Class == "" || len(r.Contenders) == 0 || r.Accepted || r.Metrics != race.Metrics {
		t.Fatalf("race outcome: winner %q, class %q, %d contenders, accepted %v, metrics %v for %v",
			r.Winner, r.Features.Class, len(r.Contenders), r.Accepted, r.Metrics, race.Metrics)
	}
}

// TestWarmSpec runs an ECO delta through igmatch: an empty delta
// reproduces the base bit for bit on the applied netlist, a large one
// falls back to a cold solve.
func TestWarmSpec(t *testing.T) {
	h := genCircuit(t, 150, 170, 8)
	base, err := Run(IGMatch, h, Spec{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(IGMatch, h, Spec{Warm: &Warm{Order: base.NetOrder, Rank: base.BestRank}})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cold || warm.H == nil || warm.Metrics != base.Metrics || warm.BestRank != base.BestRank {
		t.Fatalf("empty delta: cold %v, metrics %+v rank %d, base %+v rank %d",
			warm.Cold, warm.Metrics, warm.BestRank, base.Metrics, base.BestRank)
	}
	remove := make([]int, h.NumNets()/2)
	for i := range remove {
		remove[i] = i
	}
	cold, err := Run(IGMatch, h, Spec{Warm: &Warm{Order: base.NetOrder, Rank: base.BestRank,
		Delta: portfolio.Delta{RemoveNets: remove}}})
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Cold || cold.TouchedNets != len(remove) || cold.H.NumNets() != h.NumNets()-len(remove) {
		t.Fatalf("half the nets removed: cold %v, touched %d, %d nets", cold.Cold, cold.TouchedNets, cold.H.NumNets())
	}
}

// TestNormalizeReadSets pins each entry's read set and defaults: the
// knobs an engine does not read come back zero, Rec, Ctx and Fault
// pass through, and normalizing twice changes nothing.
func TestNormalizeReadSets(t *testing.T) {
	rec := obs.NewTrace("n")
	all := Spec{
		Pipeline: Pipeline{
			Scheme: netmodel.SchemeUnit, Threshold: 5, RecursionDepth: 2, Seed: 9, BlockSize: 2,
			Parallelism: 3, Reorth: eigen.ReorthFull, MatvecParallelism: 2, Rec: rec, Ctx: context.Background(),
		},
		Candidates: 4, Levels: 5, CoarseningRatio: 0.5, K: 3, Eps: 0.2, Fixed: []int{0},
		Budget: time.Second, Accept: 0.1, Starts: 3, Warm: &Warm{Rank: 1},
	}
	keep := func(n Spec) Spec { n.Rec, n.Ctx = rec, all.Ctx; return n }
	want := map[string]Spec{
		IGMatch: {Pipeline: all.Pipeline, Candidates: 4, Warm: all.Warm},
		Multilevel: keep(Spec{
			Pipeline: Pipeline{Scheme: netmodel.SchemeUnit, Threshold: 5, Seed: 9, BlockSize: 2,
				Parallelism: 3, Reorth: eigen.ReorthFull, MatvecParallelism: 2},
			Levels: 5, CoarseningRatio: 0.5,
		}),
		Portfolio:    keep(Spec{Pipeline: Pipeline{Seed: 9, Parallelism: 3}, Budget: time.Second, Accept: 0.1}),
		IGVote:       keep(Spec{}),
		EIG1:         keep(Spec{Pipeline: Pipeline{Seed: 9}}),
		RCut:         keep(Spec{Pipeline: Pipeline{Seed: 9}, Starts: 3}),
		KL:           keep(Spec{Pipeline: Pipeline{Seed: 9}}),
		Refined:      keep(Spec{}),
		Condensed:    keep(Spec{}),
		Multiway:     keep(Spec{K: 3, Eps: multiway.Unbounded, Fixed: []int{0}}),
		KWaySpectral: keep(Spec{Pipeline: Pipeline{Seed: 9, BlockSize: 2, Parallelism: 3, Reorth: eigen.ReorthFull, MatvecParallelism: 2}, K: 3, Eps: 0.2, Fixed: []int{0}}),
		IGDiam:       keep(Spec{}),
	}
	kw := all
	kw.RecursionDepth, kw.Levels, kw.CoarseningRatio, kw.Budget, kw.Accept, kw.Starts, kw.Warm = 0, 0, 0, 0, 0, 0, nil
	want[KWay] = kw
	for _, e := range Engines() {
		got := e.Normalize(all)
		if !reflect.DeepEqual(got, want[e.Name]) {
			t.Errorf("%s: normalized\n%+v\nwant\n%+v", e.Name, got, want[e.Name])
		}
		if again := e.Normalize(got); !reflect.DeepEqual(again, got) {
			t.Errorf("%s: normalize is not idempotent", e.Name)
		}
	}
	ml, _ := Lookup(Multilevel)
	if d := ml.Normalize(Spec{Pipeline: Pipeline{Threshold: -1, BlockSize: -2}, CoarseningRatio: 1.5}); d.Levels != 3 || d.CoarseningRatio != 0.9 || d.Threshold != 0 || d.BlockSize != 0 {
		t.Errorf("multilevel defaults: %+v", d)
	}
	if rc, _ := Lookup(RCut); rc.Normalize(Spec{}).Starts != 10 {
		t.Errorf("rcut default starts: %d", rc.Normalize(Spec{}).Starts)
	}
}

// TestCheckPreconditions pins what the table rejects before running:
// the block width, the sweep's 2 nets, the k-way contract.
func TestCheckPreconditions(t *testing.T) {
	b := hypergraph.NewBuilder().SetNumModules(4)
	b.AddNet(0, 1, 2, 3)
	oneNet := b.Build()
	h := genCircuit(t, 40, 50, 2)
	ig, _ := Lookup(IGMatch)
	race, _ := Lookup(Portfolio)
	kw, _ := Lookup(KWay)
	mw, _ := Lookup(Multiway)
	cases := []struct {
		name string
		err  error
	}{
		{"igmatch on one net", ig.Check(oneNet, Spec{})},
		{"block wider than the matrix", ig.Check(h, Spec{Pipeline: Pipeline{BlockSize: 51}})},
		{"unread block wider than the matrix", race.Check(h, Spec{Pipeline: Pipeline{BlockSize: 51}})},
		{"zero Engine, wide block", Engine{}.Check(h, Spec{Pipeline: Pipeline{BlockSize: 51}})},
		{"k=1", kw.Check(h, Spec{K: 1})},
		{"pins over the cap", kw.Check(h, Spec{K: 2, Fixed: append(make([]int, 30), make([]int, 10)...)})},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// Portfolio needs no split, multiway no balance, the zero Engine
	// nothing beyond the block width.
	fixed := make([]int, h.NumModules())
	for v := range fixed {
		fixed[v] = -1
	}
	fixed[0], fixed[1], fixed[2] = 0, 0, 0
	for name, err := range map[string]error{
		"portfolio on one net":  race.Check(oneNet, Spec{}),
		"multiway, heavy pins":  mw.Check(h, Spec{K: 20, Fixed: fixed}),
		"zero Engine, one net":  Engine{}.Check(oneNet, Spec{}),
		"igmatch, block = nets": ig.Check(h, Spec{Pipeline: Pipeline{BlockSize: 50}}),
	} {
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := Run(IGMatch, oneNet, Spec{}); err == nil || !strings.HasPrefix(err.Error(), "igmatch: ") {
		t.Errorf("Run on one net: %v", err)
	}
	if _, err := Run("anneal", h, Spec{}); err == nil {
		t.Error("Run accepted an unknown engine")
	}
	if _, ok := ByLabel("IG-Candidates"); ok {
		t.Error("IG-Candidates has its own entry; it is igmatch at the default candidate budget")
	}
}

// TestRaceForwardsSpec checks the race hands its contenders the
// context and the fault injector: a cancelled context fails the race.
func TestRaceForwardsSpec(t *testing.T) {
	h := genCircuit(t, 150, 180, 9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(Portfolio, h, Spec{Pipeline: Pipeline{Ctx: ctx}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled race: err %v", err)
	}
}

// TestRaceRealEngines runs the genuine lineup on a small circuit.
func TestRaceRealEngines(t *testing.T) {
	h := genCircuit(t, 300, 330, 42)
	tr := obs.NewTrace("race")
	res, err := Run(Portfolio, h, Spec{Pipeline: Pipeline{Seed: 1, Rec: tr}, Budget: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Race.Winner == "" || res.Partition == nil {
		t.Fatalf("no winner: %+v", res)
	}
	if res.Race.Features.Class == "" {
		t.Fatal("features not attached")
	}
	want := int64(len(portfolio.Lineup(res.Race.Features)))
	if got := tr.Metrics().Counter("portfolio.started").Value(); got != want {
		t.Fatalf("portfolio.started = %d, want %d", got, want)
	}
	if res.Metrics.RatioCut <= 0 {
		t.Fatalf("ratio cut %g", res.Metrics.RatioCut)
	}
	// The winner's cached sweep state must be usable for warm starts
	// when present.
	if len(res.NetOrder) > 0 && res.BestRank < 1 {
		t.Fatalf("net order without best rank: %d", res.BestRank)
	}
}

// TestLineupCoversClasses: every class yields a non-empty lineup of
// known engines.
func TestLineupCoversClasses(t *testing.T) {
	known := map[string]bool{
		portfolio.AlgIGMatch: true, portfolio.AlgMultilevel: true,
		portfolio.AlgEIG1: true, portfolio.AlgCandidates: true,
	}
	for _, c := range []string{"tiny", "sparse", "dense", "large"} {
		l := portfolio.Lineup(features.Vector{Class: features.Class(c)})
		if len(l) == 0 {
			t.Fatalf("class %s: empty lineup", c)
		}
		for _, alg := range l {
			if !known[alg] {
				t.Fatalf("class %s: unknown engine %q", c, alg)
			}
			e, candidates, ok := contender(alg)
			if !ok {
				t.Fatalf("class %s: %q resolves to no engine", c, alg)
			}
			if alg == portfolio.AlgCandidates && (e.Name != IGMatch || candidates != core.DefaultCandidates) {
				t.Fatalf("IG-Candidates resolves to %s at %d candidates", e.Name, candidates)
			}
		}
	}
}
