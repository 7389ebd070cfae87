package bench

import (
	"fmt"
	"strings"
	"testing"
)

// TestKWayReportSmoke runs the real k-way workload at a small scale: every
// circuit with at least k modules carries both engines at every k, each
// cell a balanced k-way block under its own stage span, and the markdown
// table has a row per (circuit, k).
func TestKWayReportSmoke(t *testing.T) {
	rep, err := Suite{Scale: 0.05}.Report("kway-smoke", WorkloadKWay)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if len(rep.Circuits) != 9 {
		t.Fatalf("%d circuits, want 9", len(rep.Circuits))
	}
	table := FormatKWayTable(rep)
	for _, c := range rep.Circuits {
		if len(c.Stages.Children) == 0 {
			t.Errorf("%s: empty stage tree", c.Name)
		}
		runs := make(map[string]AlgRun)
		for _, run := range c.Runs {
			runs[run.Alg] = run
		}
		for _, k := range kwayKs {
			if c.Modules < k {
				continue
			}
			for _, engine := range []string{EngineRecursive, EngineSpectral} {
				alg := kwayAlg(engine, k)
				cell := runs[alg].KWay
				if cell == nil {
					t.Fatalf("%s: no %s cell", c.Name, alg)
				}
				if cell.K != k || cell.Eps != kwayEps || len(cell.Sizes) != k || cell.Sizes[0] > cell.Cap {
					t.Errorf("%s/%s: unbalanced or mislabeled cell %+v", c.Name, alg, cell)
				}
				if runs[alg].Metrics != nil || runs[alg].WallNS <= 0 {
					t.Errorf("%s/%s: bipartition metrics or no wall time: %+v", c.Name, alg, runs[alg])
				}
				if c.Stages.Find(alg) == nil {
					t.Errorf("%s: no %s stage span", c.Name, alg)
				}
			}
			if row := fmt.Sprintf("| %s | %d |", c.Name, k); !strings.Contains(table, row) {
				t.Errorf("table lacks row %q:\n%s", row, table)
			}
		}
	}
}
