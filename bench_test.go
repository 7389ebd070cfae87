package igpart

// One testing.B benchmark per table and figure of the paper (see DESIGN.md
// §3 for the experiment index). The benchmarks run the same harness code as
// cmd/experiments, at reduced scale so `go test -bench=.` completes in
// minutes; run `go run igpart/cmd/experiments` for the full-size tables.

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"igpart/internal/bench"
	"igpart/internal/core"
	"igpart/internal/eigen"
	"igpart/internal/netgen"
	"igpart/internal/netmodel"
)

// benchSuite is the reduced-scale harness configuration used by the
// per-table benchmarks.
func benchSuite() bench.Suite { return bench.Suite{Scale: 0.2, RCutStarts: 5} }

// T1 — Table 1: cut statistics per net size.
func BenchmarkTable1(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// T2 — Table 2: IG-Match vs RCut.
func BenchmarkTable2(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bench.GeomImprovement(rows), "avg-improve-%")
	}
}

// T3 — Table 3: IG-Match vs IG-Vote.
func BenchmarkTable3(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Table3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bench.GeomImprovement(rows), "avg-improve-%")
	}
}

// §4 — the EIG1 comparison quoted alongside Table 3.
func BenchmarkTableEIG1(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.TableEIG1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bench.GeomImprovement(rows), "avg-improve-%")
	}
}

// Prior IG work — IG-Match vs the Kahng'89-style diameter heuristic.
func BenchmarkTableIGDiam(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.TableIGDiam()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bench.GeomImprovement(rows), "avg-improve-%")
	}
}

// X1 — sparsity comparison (the Test05 nonzero-count claim).
func BenchmarkSparsity(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.SparsityTable()
		if err != nil {
			b.Fatal(err)
		}
		avg := 0.0
		for _, r := range rows {
			avg += r.Ratio
		}
		b.ReportMetric(avg/float64(len(rows)), "clique/IG-nnz")
	}
}

// §5 scalability claim — pipeline cost vs circuit size.
func BenchmarkScaling(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.ScalingTable([]float64{0.5, 1, 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// X2 — runtime comparison: spectral flow vs multi-start RCut.
func BenchmarkTiming(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.TimingTable(); err != nil {
			b.Fatal(err)
		}
	}
}

// X3 — stability: deterministic IG-Match vs seed-dependent RCut.
func BenchmarkStability(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.StabilityTable(3); err != nil {
			b.Fatal(err)
		}
	}
}

// A1 — IG edge-weight scheme ablation.
func BenchmarkWeightSchemes(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.WeightSchemeTable(); err != nil {
			b.Fatal(err)
		}
	}
}

// A6 — net-model fragility ablation (EIG1 clique vs star; IG-Match none).
func BenchmarkNetModel(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.NetModelTable(); err != nil {
			b.Fatal(err)
		}
	}
}

// A2 — thresholding sparsification ablation.
func BenchmarkThreshold(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.ThresholdTable(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// A3 — recursive completion extension.
func BenchmarkRecursive(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.RecursiveTable(); err != nil {
			b.Fatal(err)
		}
	}
}

// A4 — FM post-refinement extension.
func BenchmarkRefine(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.RefineTable(); err != nil {
			b.Fatal(err)
		}
	}
}

// A5 — clustering condensation extension.
func BenchmarkCluster(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.ClusterTable(); err != nil {
			b.Fatal(err)
		}
	}
}

// §1.1 taxonomy — one representative per partitioning-approach class.
func BenchmarkTaxonomy(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.TaxonomyTable(); err != nil {
			b.Fatal(err)
		}
	}
}

// O1 — net-ordering ablation (eigen vs random vs size vs BFS orders).
func BenchmarkOrdering(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.OrderingTable(2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the pipeline stages on a full-size circuit. ---

func prim2(b *testing.B, scale float64) *Netlist {
	b.Helper()
	cfg, _ := netgen.ByName("Prim2")
	h, err := netgen.Generate(cfg.Scaled(scale))
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// F1 — intersection-graph construction (the Figure 1 transformation).
func BenchmarkFigure1IGConstruction(b *testing.B) {
	h := prim2(b, 1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		netmodel.IntersectionGraph(h, netmodel.IGOptions{})
	}
}

// Lanczos Fiedler solve on the full-size Prim2 intersection graph.
func BenchmarkFiedlerIGPrim2(b *testing.B) {
	h := prim2(b, 1.0)
	q := netmodel.IGLaplacian(h, netmodel.IGOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eigen.Fiedler(q, eigen.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// F2/F5–F7 — the incremental sweep with matching maintenance and
// completions (the IG-Match main loop without the eigensolve).
func BenchmarkSweepPrim2(b *testing.B) {
	h := prim2(b, 1.0)
	res, err := core.Partition(h, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PartitionWithOrder(h, res.NetOrder, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// An ECO warm start on the full-size Prim2 circuit: one seeded delta of
// 1% of the nets removed and 3 pins added, re-partitioned from the base
// IGMatch result's net ordering and best rank (one sweep, no eigensolve).
func BenchmarkWarmStartPrim2(b *testing.B) {
	h := prim2(b, 1.0)
	base, err := IGMatch(h)
	if err != nil {
		b.Fatal(err)
	}
	d := ecoDelta(h, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := WarmStart(h, base, d)
		if err != nil {
			b.Fatal(err)
		}
		if res.Cold {
			b.Fatal("the delta fell back to a cold solve")
		}
	}
}

// ecoDelta removes 1% of h's nets (at least one) and adds 3 pins to
// surviving nets, drawn from seed.
func ecoDelta(h *Netlist, seed int64) NetlistDelta {
	rng := rand.New(rand.NewSource(seed))
	m, n := h.NumNets(), h.NumModules()
	removed := make(map[int]bool)
	for len(removed) < max(1, m/100) {
		removed[rng.Intn(m)] = true
	}
	var d NetlistDelta
	for e := range removed {
		d.RemoveNets = append(d.RemoveNets, e)
	}
	slices.Sort(d.RemoveNets)
	added := make(map[DeltaPin]bool)
	for len(d.AddPins) < 3 {
		p := DeltaPin{Net: rng.Intn(m), Module: rng.Intn(n)}
		if removed[p.Net] || added[p] || slices.Contains(h.Pins(p.Net), p.Module) {
			continue
		}
		added[p] = true
		d.AddPins = append(d.AddPins, p)
	}
	return d
}

// The candidate sweep over the full-size Prim2 Fiedler order at P=1, on
// both sides of the walk bound: 8 candidates bootstrap a Hopcroft–Karp
// matching at every one, 12 and 32 bootstrap once and walk the gaps
// between.
func BenchmarkCandidateSweepPrim2(b *testing.B) {
	h := prim2(b, 1.0)
	res, err := core.Partition(h, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []int{8, 12, 32} {
		b.Run(fmt.Sprintf("candidates=%d", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.PartitionCandidatesWithOrder(h, res.NetOrder, c, core.Options{Parallelism: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// P-scaling — the sharded sweep engine at P=1 (serial) vs P=NumCPU on the
// full-size Prim2 circuit. Both produce bit-identical results; the sub-
// benchmark ratio is the sweep speedup the Parallelism knob buys on this
// machine.
func BenchmarkSweepPrim2Parallel(b *testing.B) {
	h := prim2(b, 1.0)
	res, err := core.Partition(h, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.PartitionWithOrder(h, res.NetOrder, core.Options{Parallelism: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// End-to-end IG-Match on the full-size Prim2 circuit.
func BenchmarkIGMatchPrim2(b *testing.B) {
	h := prim2(b, 1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := IGMatch(h); err != nil {
			b.Fatal(err)
		}
	}
}

// End-to-end RCut best-of-10 on the full-size Prim2 circuit (the paper's
// runtime comparison partner).
func BenchmarkRCutPrim2(b *testing.B) {
	h := prim2(b, 1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RCut(h, 10, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
