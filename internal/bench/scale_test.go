package bench

import "testing"

// TestScaleReportSmoke runs the real scale workload on a small preset:
// both modes complete, runs are labeled, and the report carries the pair
// the claim reads (the 3x/100k claim itself is only meaningful at full
// scale).
func TestScaleReportSmoke(t *testing.T) {
	rep, err := Suite{Preset: "Prim1"}.Report("scale-smoke", WorkloadScale)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	c, runs := findRuns(rep, []string{AlgScaleSelective, AlgScaleFull})
	if c == nil {
		t.Fatal("report lacks the selective/full run pair")
	}
	if c.Nets != 902 {
		t.Fatalf("Prim1 preset produced %d nets", c.Nets)
	}
	sel, full := runs[AlgScaleSelective], runs[AlgScaleFull]
	if sel.Metrics.CutNets <= 0 || full.Metrics.CutNets <= 0 {
		t.Fatalf("degenerate cuts: selective %d, full %d", sel.Metrics.CutNets, full.Metrics.CutNets)
	}
	if sel.WallNS <= 0 || full.WallNS <= 0 {
		t.Fatal("wall times not recorded")
	}
	// Identical ordering => identical candidate sweep => identical cut.
	if sel.RatioCut != full.RatioCut {
		t.Fatalf("selective ratio cut %.9g != full %.9g on Prim1 — ordering parity broke", sel.RatioCut, full.RatioCut)
	}
	if c.Stages.Find(AlgScaleSelective) == nil || c.Stages.Find(AlgScaleFull) == nil {
		t.Fatalf("stage tree lacks a span per mode: %+v", c.Stages)
	}
}
