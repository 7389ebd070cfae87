package igpart

import (
	"math"
	"strings"
	"testing"

	"igpart/internal/engine"
)

// algUnderTest names one algorithm and adapts it to the common
// (Result, error) shape so every partitioner goes through the same
// invariant checks.
type algUnderTest struct {
	name string
	run  func(h *Netlist) (Result, error)
}

// allAlgorithms lists every bipartition engine of the table, named by
// its label without hyphens and run at seed 7 (RCut with 3 starts),
// plus the candidate sweep and the two façade partitioners outside the
// table.
func allAlgorithms() []algUnderTest {
	var algs []algUnderTest
	for _, e := range engine.Engines() {
		if e.KWay {
			continue
		}
		algs = append(algs, algUnderTest{strings.ReplaceAll(e.Label, "-", ""), func(h *Netlist) (Result, error) {
			out, err := e.Run(h, engine.Spec{Pipeline: engine.Pipeline{Seed: 7}, Starts: 3})
			return Result{Partition: out.Partition, Metrics: out.Metrics}, err
		}})
	}
	return append(algs,
		algUnderTest{"IGCandidates", func(h *Netlist) (Result, error) {
			r, err := IGMatchCandidates(h, 0)
			return r.Result, err
		}},
		algUnderTest{"Anneal", func(h *Netlist) (Result, error) { return Anneal(h, 7) }},
		algUnderTest{"MinCut", MinCut},
	)
}

// TestAlgorithmMetricsInvariants re-derives every algorithm's reported
// metrics from its returned bipartition and checks the two properties
// any correct partitioner must satisfy:
//
//  1. The Metrics in the result are exactly Evaluate(h, Partition) — no
//     algorithm may report a cut it did not produce.
//  2. The ratio cut is invariant under swapping the two sides (the cost
//     cut/(|U|·|W|) is symmetric in U and W), while SizeU/SizeW trade
//     places and CutNets is unchanged.
func TestAlgorithmMetricsInvariants(t *testing.T) {
	circuits := []struct {
		name  string
		scale float64
	}{
		{"Prim1", 0.15},
		{"Test04", 0.08},
	}
	for _, c := range circuits {
		cfg, ok := Benchmark(c.name)
		if !ok {
			t.Fatalf("benchmark %s missing", c.name)
		}
		h, err := Generate(cfg.Scaled(c.scale))
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range allAlgorithms() {
			alg := alg
			t.Run(c.name+"/"+alg.name, func(t *testing.T) {
				res, err := alg.run(h)
				if err != nil {
					t.Fatal(err)
				}
				if res.Partition == nil {
					t.Fatal("nil partition")
				}
				if res.Partition.NumModules() != h.NumModules() {
					t.Fatalf("partition covers %d of %d modules",
						res.Partition.NumModules(), h.NumModules())
				}
				got := Evaluate(h, res.Partition)
				if got != res.Metrics {
					t.Errorf("reported metrics %+v != re-evaluated %+v", res.Metrics, got)
				}
				if got.SizeU == 0 || got.SizeW == 0 {
					t.Errorf("improper bipartition: sizes %d/%d", got.SizeU, got.SizeW)
				}
				if got.SizeU+got.SizeW != h.NumModules() {
					t.Errorf("sizes %d+%d != %d modules", got.SizeU, got.SizeW, h.NumModules())
				}

				swapped := res.Partition.Clone()
				swapped.Swap()
				sm := Evaluate(h, swapped)
				if sm.CutNets != got.CutNets {
					t.Errorf("cut changed under side swap: %d vs %d", sm.CutNets, got.CutNets)
				}
				if sm.SizeU != got.SizeW || sm.SizeW != got.SizeU {
					t.Errorf("sizes not exchanged under swap: %+v vs %+v", sm, got)
				}
				if math.Abs(sm.RatioCut-got.RatioCut) > 1e-15 {
					t.Errorf("ratio cut not swap-invariant: %g vs %g", sm.RatioCut, got.RatioCut)
				}
			})
		}
	}
}
