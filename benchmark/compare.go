package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json the harness reads back.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadSet reads a run-set: a comma-separated list of record files or
// directories of them (span files are skipped).
func loadSet(list string) ([]record, error) {
	var files []string
	for _, p := range strings.Split(list, ",") {
		st, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			files = append(files, p)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(p, "*.json"))
		if err != nil {
			return nil, err
		}
		for _, m := range matches {
			if !strings.HasSuffix(m, ".trace.json") {
				files = append(files, m)
			}
		}
	}
	var recs []record
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("run-set %q holds no records", list)
	}
	return recs, nil
}

// compareSets prints, for every (workload, metric) both run-sets report,
// each side's median and quartiles and — for end-to-end metrics — a
// verdict under the metric's BENCHMARK.json bound. It reports whether
// any verdict is "worse".
func compareSets(specPath, a, b string, w io.Writer) (bool, error) {
	s, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	ra, err := loadSet(a)
	if err != nil {
		return false, err
	}
	rb, err := loadSet(b)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tB vs A\tverdict")
	worse := false
	counts := make(map[string]int)
	for _, wl := range s.Workloads {
		for _, m := range append(s.EndToEnd, s.PerLayer...) {
			va, vb := values(ra, wl.Name, m.Name), values(rb, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			ma, mb := median(va), median(vb)
			verdict := "-" // per-layer metrics carry no bound
			if m.Bound != nil {
				verdict = judge(ma, mb, qa, qb, m.Better, *m.Bound)
				counts[verdict]++
				worse = worse || verdict == "worse"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%+.2f%%\t%s\n",
				wl.Name, m.Name, ma, qa[0], qa[2], mb, qb[0], qb[2], 100*(mb-ma)/ma, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "\nend-to-end verdicts: %d same, %d better, %d worse, %d unresolved\n",
		counts["same"], counts["better"], counts["worse"], counts["unresolved"])
	return worse, nil
}

// judge classifies B's median against A's under a relative bound: a
// side whose quartile spread exceeds the bound cannot be resolved.
func judge(ma, mb float64, qa, qb [3]float64, better string, bound float64) string {
	if (qa[2]-qa[0])/ma > bound || (qb[2]-qb[0])/mb > bound {
		return "unresolved"
	}
	change := (mb - ma) / ma // positive = B larger
	if better == "higher" {
		change = -change
	}
	switch {
	case change > bound:
		return "worse"
	case change < -bound:
		return "better"
	default:
		return "same"
	}
}

// values collects one metric of one workload across a run-set.
func values(recs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}
