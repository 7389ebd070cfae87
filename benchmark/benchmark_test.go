package main

import (
	"math"
	"regexp"
	"slices"
	"strings"
	"testing"

	"igpart"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesHarness checks that BENCHMARK.json declares exactly the
// workloads and metrics the harness emits, with valid names and units.
func TestSpecMatchesHarness(t *testing.T) {
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s.Command, []string{"bash", "benchmark/run.sh"}) || !slices.Equal(s.Paths, []string{"benchmark"}) {
		t.Errorf("command %q paths %q", s.Command, s.Paths)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1,60]", s.RunSeconds)
	}
	seen := make(map[string]bool)
	checkName := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is invalid or used twice", name)
		}
		seen[name] = true
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q %q, harness %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	for _, c := range []struct {
		declared []specMetric
		emitted  []metricDef
		bounded  bool
	}{{s.EndToEnd, endToEnd, true}, {s.PerLayer, perLayer, false}} {
		if len(c.declared) != len(c.emitted) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the harness emits %d", len(c.declared), len(c.emitted))
		}
		for i, m := range c.declared {
			checkName(m.Name)
			e := c.emitted[i]
			if m.Name != e.name || m.Unit != e.unit || m.Better != e.better {
				t.Errorf("metric %d: BENCHMARK.json %s %s %s, harness %s %s %s", i, m.Name, m.Unit, m.Better, e.name, e.unit, e.better)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q is invalid", m.Name, m.Unit)
			}
			if c.bounded != (m.Bound != nil) {
				t.Errorf("metric %s: bound present=%v, want %v", m.Name, m.Bound != nil, c.bounded)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
			}
		}
	}
	if m := s.EndToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", m)
	} else {
		for _, o := range s.EndToEnd[1:] {
			if *o.Bound > *m.Bound {
				t.Errorf("%s has a larger bound than setup_s", o.Name)
			}
		}
	}
}

// TestWorkloadsTiny runs every workload at a tenth of its input size for
// a fraction of a second, untraced and traced, and checks that each run
// verifies every result and emits every declared metric with its unit.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemons")
	}
	igpart, igpartd, err := buildBinaries("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{root: "..", workload: w.name, seed: 1, seconds: 0.3, trace: trace, scale: 0.1, setups: 1, igpart: igpart, igpartd: igpartd}
			r, err := measure(o, w)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %q", w.name, trace, r.Correct, r.Attempted, r.Failed, r.Failures)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := r.Metrics[d.name]
				if !ok || v.Unit != d.unit || math.IsNaN(v.Value) {
					t.Errorf("%s trace=%v: metric %s = %+v, want a value in %s", w.name, trace, d.name, v, d.unit)
				}
			}
		}
	}
}

// TestVerifier checks that the verifier accepts a true report and
// rejects a misreported cut, a changed cached result and a stale ECO
// provenance.
func TestVerifier(t *testing.T) {
	b := igpart.NewBuilder()
	b.AddNet(0, 1)
	b.AddNet(1, 2)
	b.AddNet(2, 3)
	h := b.Build()
	good := &resultDoc{CutNets: 1, SizeU: 2, SizeW: 2, RatioCut: 0.25, Sides: []int{0, 0, 1, 1}}
	if err := verifyResult(h, good); err != nil {
		t.Fatalf("true report rejected: %v", err)
	}
	for _, bad := range []resultDoc{
		{CutNets: 0, SizeU: 2, SizeW: 2, RatioCut: 0, Sides: []int{0, 0, 1, 1}},
		{CutNets: 1, SizeU: 2, SizeW: 2, RatioCut: 0.25, Sides: []int{0, 1, 0, 1}},
		{CutNets: 1, SizeU: 2, SizeW: 2, RatioCut: 0.25, Sides: []int{0, 0, 1}},
		{CutNets: 1, SizeU: 4, SizeW: 0, RatioCut: 0.25, Sides: []int{0, 0, 0, 0}},
	} {
		if err := verifyResult(h, &bad); err == nil {
			t.Errorf("misreport %+v accepted", bad)
		}
	}
	swapped := *good
	swapped.Sides = []int{1, 1, 0, 0}
	if err := sameResult(&swapped, good); err == nil {
		t.Error("a cached result with other sides passed as the original")
	}
	d := igpart.NetlistDelta{RemoveNets: []int{0}}
	if err := verifyECO(&resultDoc{Warm: false, TouchedNets: 1}, d, 100); err == nil {
		t.Error("a cold ECO result below the fallback threshold passed")
	}
	if err := verifyECO(&resultDoc{Warm: false, TouchedNets: 1}, d, 3); err != nil {
		t.Errorf("a cold fallback above the threshold was rejected: %v", err)
	}

	out := "lambda2=1 split=1/3 matching-bound=1\nigmatch: 2:2 cut=1 ratio=0.25\nm0 U\nm1 U\nm2 W\nm3 W\n"
	r, err := parseAssign(h, out)
	if err != nil || r.RatioCut != 0.25 || !slices.Equal(r.Sides, good.Sides) {
		t.Errorf("parseAssign = %+v, %v", r, err)
	}
	if _, err := parseAssign(h, strings.Replace(out, "cut=1", "cut=2", 1)); err == nil {
		t.Error("parseAssign accepted a misprinted cut")
	}
}

// TestJudge checks the -compare verdicts.
func TestJudge(t *testing.T) {
	tight := func(m float64) [3]float64 { return [3]float64{0.99 * m, m, 1.01 * m} }
	for _, c := range []struct {
		a, b   float64
		qa, qb [3]float64
		better string
		want   string
	}{
		{100, 105, tight(100), tight(105), "lower", "same"},
		{100, 120, tight(100), tight(120), "lower", "worse"},
		{100, 80, tight(100), tight(80), "lower", "better"},
		{100, 80, tight(100), tight(80), "higher", "worse"},
		{100, 100, [3]float64{80, 100, 120}, tight(100), "lower", "unresolved"},
	} {
		if got := judge(c.a, c.b, c.qa, c.qb, c.better, 0.1); got != c.want {
			t.Errorf("judge(%v, %v, %s) = %s, want %s", c.a, c.b, c.better, got, c.want)
		}
	}
	if q := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v, want Python's [2.75 5.5 8.25]", q)
	}
}
