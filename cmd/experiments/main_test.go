package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReportFlagsOnEveryWorkload drives run through each report workload
// at -scale 0.05 with -trace, -metrics and -cpuprofile: every one writes
// its report, prints the report's own stage tree and metrics snapshot,
// leaves a CPU profile, and only then is gated on its workload's claims —
// which a 5k-net scale run cannot meet. (The 500-net portfolio run's
// speedup claim is timing-dependent, so either verdict is accepted.)
func TestReportFlagsOnEveryWorkload(t *testing.T) {
	for _, tc := range []struct {
		workload, span, gateErr string
	}{
		{"suite", "IG-Match", ""},
		{"kway", "recursive/k=4", ""},
		{"scale", "IG-Scale/full", "below the 100000-net floor"},
		{"portfolio", "ECO/warm", ""},
	} {
		dir := t.TempDir()
		prof := filepath.Join(dir, "cpu.pprof")
		var out bytes.Buffer
		err := run([]string{"-report", "t", "-workload", tc.workload, "-scale", "0.05", "-p", "1",
			"-results", dir, "-trace", "-metrics", "-cpuprofile", prof}, &out)
		switch {
		case tc.gateErr != "" && (err == nil || !strings.Contains(err.Error(), tc.gateErr)):
			t.Errorf("%s: gate error %v, want one mentioning %q", tc.workload, err, tc.gateErr)
		case err != nil && !strings.Contains(err.Error(), "fails the "+tc.workload+" gate"):
			t.Errorf("%s: failed before the gate: %v", tc.workload, err)
		}
		if _, err := os.Stat(filepath.Join(dir, "BENCH_t.json")); err != nil {
			t.Errorf("%s: report not written: %v", tc.workload, err)
		}
		if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
			t.Errorf("%s: CPU profile not written: %v", tc.workload, err)
		}
		for _, want := range []string{"bench:t", tc.span, "counter eigen.matvecs"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: output lacks %q:\n%s", tc.workload, want, out.String())
			}
		}
	}
}

// TestGateCheckedInReport gates a checked-in report through the CLI, as
// bench-sanity does, then diffs it against a baseline of another workload,
// which must fail.
func TestGateCheckedInReport(t *testing.T) {
	var out bytes.Buffer
	scale := filepath.Join("..", "..", "results", "BENCH_scale.json")
	if err := run([]string{"-gate", scale}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "passes (scale workload)") {
		t.Errorf("output %q", out.String())
	}
	base := filepath.Join("..", "..", "results", "BENCH_baseline.json")
	err := run([]string{"-gate", scale, "-baseline", base}, &out)
	if err == nil || !strings.Contains(err.Error(), `workload "scale" does not match the baseline's "suite"`) {
		t.Fatalf("cross-workload diff: %v", err)
	}
}
