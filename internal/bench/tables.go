package bench

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"igpart/internal/condense"
	"igpart/internal/core"
	"igpart/internal/eigen"
	"igpart/internal/engine"
	"igpart/internal/fm"
	"igpart/internal/netgen"
	"igpart/internal/netmodel"
	"igpart/internal/obs"
	"igpart/internal/partition"
	"igpart/internal/refine"
	"igpart/internal/spectral"
)

// ---------------------------------------------------------------------------
// Table 1 — cut statistics per net size for a locally minimum ratio cut.

// Table1Result carries the Table 1 reproduction.
type Table1Result struct {
	Circuit string
	Metrics partition.Metrics
	Rows    []partition.CutStatRow
}

// Table1 optimizes a ratio cut on the Prim2-class circuit with the RCut
// heuristic (a "typical locally minimum ratio cut", as the paper puts it)
// and tabulates cut counts per net size.
func (s Suite) Table1() (Table1Result, error) {
	s = s.withDefaults()
	cfg, _ := netgen.ByName("Prim2")
	cfg = cfg.Scaled(s.Scale)
	cfg.Seed += s.Seed
	h, err := netgen.Generate(cfg)
	if err != nil {
		return Table1Result{}, err
	}
	res, err := fm.RatioCut(h, fm.Options{Starts: s.RCutStarts, Seed: 1 + s.Seed})
	if err != nil {
		return Table1Result{}, err
	}
	return Table1Result{
		Circuit: cfg.Name,
		Metrics: res.Metrics,
		Rows:    partition.CutStatistics(h, res.Partition),
	}, nil
}

// FormatTable1 renders the Table 1 layout.
func FormatTable1(r Table1Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: cut statistics per net size (%s, ratio cut %s)\n", r.Circuit, ratioStr(r.Metrics.RatioCut))
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "Net Size\tNumber of Nets\tNumber Cut\t")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%d\t%d\t%d\t\n", row.NetSize, row.Count, row.Cut)
	}
	w.Flush()
	return b.String()
}

// NonMonotone reports whether the cut fraction fails to increase
// monotonically with net size over rows with at least minCount nets — the
// qualitative claim Table 1 supports.
func NonMonotone(rows []partition.CutStatRow, minCount int) bool {
	prev := -1.0
	for _, r := range rows {
		if r.Count < minCount {
			continue
		}
		frac := float64(r.Cut) / float64(r.Count)
		if prev >= 0 && frac < prev-1e-12 {
			return true
		}
		prev = frac
	}
	return false
}

// ---------------------------------------------------------------------------
// Tables 2 and 3 — IG-Match vs RCut and vs IG-Vote.

// Table2 compares IG-Match against the RCut baseline (paper: 28.8% average
// improvement).
func (s Suite) Table2() ([]CompareRow, error) { return s.Compare(AlgRCut, AlgIGMatch) }

// Table3 compares IG-Match against IG-Vote (paper: 7% average improvement,
// uniform domination).
func (s Suite) Table3() ([]CompareRow, error) { return s.Compare(AlgIGVote, AlgIGMatch) }

// TableEIG1 compares IG-Match against EIG1 (paper: 22% average improvement
// quoted in Section 4).
func (s Suite) TableEIG1() ([]CompareRow, error) { return s.Compare(AlgEIG1, AlgIGMatch) }

// TableIGDiam compares IG-Match against the Kahng'89-style diameter
// heuristic — the earliest intersection-graph partitioner the paper cites.
func (s Suite) TableIGDiam() ([]CompareRow, error) { return s.Compare(AlgIGDiam, AlgIGMatch) }

// FormatCompare renders a Table 2/3-style comparison.
func FormatCompare(title, baseName, oursName string, rows []CompareRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "Test\tElements\t%s areas\tcut\tratio\t%s areas\tcut\tratio\timprove%%\t\n", baseName, oursName)
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d:%d\t%d\t%s\t%d:%d\t%d\t%s\t%.0f\t\n",
			r.Name, r.Elements,
			r.Base.SizeU, r.Base.SizeW, r.Base.CutNets, ratioStr(r.Base.RatioCut),
			r.Ours.SizeU, r.Ours.SizeW, r.Ours.CutNets, ratioStr(r.Ours.RatioCut),
			r.Improvement)
	}
	w.Flush()
	fmt.Fprintf(&b, "average improvement: %.1f%%\n", GeomImprovement(rows))
	return b.String()
}

// ---------------------------------------------------------------------------
// X1 — sparsity of the intersection graph vs the clique model.

// SparsityRow reports the nonzero counts of both net models for one
// benchmark (paper, Section 1.2: Test05 has 19 935 IG nonzeros vs 219 811
// clique nonzeros).
type SparsityRow struct {
	Name    string
	Modules int
	Nets    int
	netmodel.Sparsity
}

// SparsityTable builds both models for every benchmark.
func (s Suite) SparsityTable() ([]SparsityRow, error) {
	s = s.withDefaults()
	cfgs, hs, err := s.circuits()
	if err != nil {
		return nil, err
	}
	rows := make([]SparsityRow, len(hs))
	for i, h := range hs {
		rows[i] = SparsityRow{
			Name:     cfgs[i].Name,
			Modules:  h.NumModules(),
			Nets:     h.NumNets(),
			Sparsity: netmodel.CompareSparsity(h),
		}
	}
	return rows, nil
}

// FormatSparsity renders the sparsity comparison.
func FormatSparsity(rows []SparsityRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Sparsity: clique-model vs intersection-graph nonzeros")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Test\tModules\tNets\tClique nnz\tIG nnz\tratio\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%.2f\t\n",
			r.Name, r.Modules, r.Nets, r.CliqueNonzeros, r.IGNonzeros, r.Ratio)
	}
	w.Flush()
	return b.String()
}

// ---------------------------------------------------------------------------
// X2 — runtime comparison: spectral flow vs multi-start RCut.

// TimingRow reports wall-clock comparison for one benchmark (the paper's
// PrimSC2 datum: 83 s eigen vs 204 s for 10 RCut1.0 runs on a Sun4/60).
type TimingRow struct {
	Name      string
	IGMatch   time.Duration
	EIG1      time.Duration
	RCutBest  time.Duration // full multi-start run
	RCutOne   time.Duration // single start, for scale
	SpeedupVs float64       // RCutBest / IGMatch
}

// TimingTable measures all four timings per benchmark.
func (s Suite) TimingTable() ([]TimingRow, error) {
	s = s.withDefaults()
	cfgs, hs, err := s.circuits()
	if err != nil {
		return nil, err
	}
	rows := make([]TimingRow, len(hs))
	for i, h := range hs {
		_, igT, err := s.Run(AlgIGMatch, h)
		if err != nil {
			return nil, err
		}
		_, egT, err := s.Run(AlgEIG1, h)
		if err != nil {
			return nil, err
		}
		_, rcT, err := s.Run(AlgRCut, h)
		if err != nil {
			return nil, err
		}
		one := Suite{Scale: s.Scale, RCutStarts: 1, Seed: s.Seed}
		_, rc1T, err := one.Run(AlgRCut, h)
		if err != nil {
			return nil, err
		}
		rows[i] = TimingRow{
			Name:     cfgs[i].Name,
			IGMatch:  igT,
			EIG1:     egT,
			RCutBest: rcT,
			RCutOne:  rc1T,
		}
		if igT > 0 {
			rows[i].SpeedupVs = float64(rcT) / float64(igT)
		}
	}
	return rows, nil
}

// FormatTiming renders the timing comparison.
func FormatTiming(rows []TimingRow, starts int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Timing: IG-Match / EIG1 vs RCut best-of-%d (wall clock)\n", starts)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Test\tIG-Match\tEIG1\tRCut xN\tRCut x1\tRCutN/IG\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%v\t%v\t%v\t%v\t%.2f\t\n",
			r.Name, r.IGMatch.Round(time.Millisecond), r.EIG1.Round(time.Millisecond),
			r.RCutBest.Round(time.Millisecond), r.RCutOne.Round(time.Millisecond), r.SpeedupVs)
	}
	w.Flush()
	return b.String()
}

// ---------------------------------------------------------------------------
// X3 — stability: deterministic spectral flow vs seed-dependent RCut.

// StabilityRow summarizes the run-to-run behavior on one benchmark.
type StabilityRow struct {
	Name        string
	IGMatch     float64   // single deterministic ratio cut
	RCutRatios  []float64 // one final ratio per seed
	RCutBest    float64
	RCutWorst   float64
	RCutSpread  float64 // worst/best
	DistinctIGs int     // distinct IG-Match results across repeats (must be 1)
}

// StabilityTable runs IG-Match repeatedly (expecting identical output) and
// RCut across `seeds` different seeds.
func (s Suite) StabilityTable(seeds int) ([]StabilityRow, error) {
	s = s.withDefaults()
	if seeds <= 0 {
		seeds = 5
	}
	cfgs, hs, err := s.circuits()
	if err != nil {
		return nil, err
	}
	rows := make([]StabilityRow, len(hs))
	for i, h := range hs {
		row := StabilityRow{Name: cfgs[i].Name}
		distinct := map[partition.Metrics]bool{}
		for rep := 0; rep < 3; rep++ {
			met, _, err := s.Run(AlgIGMatch, h)
			if err != nil {
				return nil, err
			}
			distinct[met] = true
			row.IGMatch = met.RatioCut
		}
		row.DistinctIGs = len(distinct)
		for seed := 0; seed < seeds; seed++ {
			res, err := fm.RatioCut(h, fm.Options{Starts: 1, Seed: int64(1000 + seed)})
			if err != nil {
				return nil, err
			}
			row.RCutRatios = append(row.RCutRatios, res.Metrics.RatioCut)
			if seed == 0 || res.Metrics.RatioCut < row.RCutBest {
				row.RCutBest = res.Metrics.RatioCut
			}
			if res.Metrics.RatioCut > row.RCutWorst {
				row.RCutWorst = res.Metrics.RatioCut
			}
		}
		if row.RCutBest > 0 {
			row.RCutSpread = row.RCutWorst / row.RCutBest
		}
		rows[i] = row
	}
	return rows, nil
}

// FormatStability renders the stability comparison.
func FormatStability(rows []StabilityRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Stability: deterministic IG-Match vs single-start RCut across seeds")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Test\tIG-Match\tRCut best\tRCut worst\tworst/best\tIG distinct\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%.2f\t%d\t\n",
			r.Name, ratioStr(r.IGMatch), ratioStr(r.RCutBest), ratioStr(r.RCutWorst),
			r.RCutSpread, r.DistinctIGs)
	}
	w.Flush()
	return b.String()
}

// ---------------------------------------------------------------------------
// A1 — IG edge-weight scheme ablation.

// WeightRow holds IG-Match results under each weighting scheme.
type WeightRow struct {
	Name    string
	Ratios  map[netmodel.WeightScheme]float64
	CutNets map[netmodel.WeightScheme]int
}

// weightSchemes lists the ablated schemes in display order.
var weightSchemes = []netmodel.WeightScheme{
	netmodel.SchemePaper, netmodel.SchemeUnit, netmodel.SchemeOverlap, netmodel.SchemeMinSize,
}

// WeightSchemeTable runs IG-Match under every IG weighting (the paper's
// Section 2.2 robustness claim: schemes give "extremely similar" results).
func (s Suite) WeightSchemeTable() ([]WeightRow, error) {
	s = s.withDefaults()
	cfgs, hs, err := s.circuits()
	if err != nil {
		return nil, err
	}
	rows := make([]WeightRow, len(hs))
	for i, h := range hs {
		row := WeightRow{
			Name:    cfgs[i].Name,
			Ratios:  map[netmodel.WeightScheme]float64{},
			CutNets: map[netmodel.WeightScheme]int{},
		}
		for _, scheme := range weightSchemes {
			res, err := core.Partition(h, core.Options{IG: netmodel.IGOptions{Scheme: scheme}})
			if err != nil {
				return nil, fmt.Errorf("bench: scheme %v on %s: %w", scheme, cfgs[i].Name, err)
			}
			row.Ratios[scheme] = res.Metrics.RatioCut
			row.CutNets[scheme] = res.Metrics.CutNets
		}
		rows[i] = row
	}
	return rows, nil
}

// FormatWeightSchemes renders the weighting ablation.
func FormatWeightSchemes(rows []WeightRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation A1: IG edge-weight schemes (ratio cut per scheme)")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprint(w, "Test\t")
	for _, scheme := range weightSchemes {
		fmt.Fprintf(w, "%v\t", scheme)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t", r.Name)
		for _, scheme := range weightSchemes {
			fmt.Fprintf(w, "%s\t", ratioStr(r.Ratios[scheme]))
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return b.String()
}

// ---------------------------------------------------------------------------
// A6 — net-model fragility: EIG1 depends on the flattening choice,
// IG-Match has no net model to choose.

// NetModelRow compares EIG1 under the clique and star net models against
// IG-Match on one benchmark.
type NetModelRow struct {
	Name       string
	EIG1Clique float64
	EIG1Star   float64
	IGMatch    float64
	// SpreadPct is |clique−star|/min — how much EIG1's result moves when
	// only the net model changes (Section 2.1's fragility).
	SpreadPct float64
}

// NetModelTable runs the fragility ablation over the suite.
func (s Suite) NetModelTable() ([]NetModelRow, error) {
	s = s.withDefaults()
	cfgs, hs, err := s.circuits()
	if err != nil {
		return nil, err
	}
	rows := make([]NetModelRow, len(hs))
	for i, h := range hs {
		clique, err := spectral.Partition(h, spectral.Options{})
		if err != nil {
			return nil, err
		}
		star, err := spectral.Partition(h, spectral.Options{Model: spectral.ModelStar})
		if err != nil {
			return nil, err
		}
		ig, err := core.Partition(h, core.Options{})
		if err != nil {
			return nil, err
		}
		row := NetModelRow{
			Name:       cfgs[i].Name,
			EIG1Clique: clique.Metrics.RatioCut,
			EIG1Star:   star.Metrics.RatioCut,
			IGMatch:    ig.Metrics.RatioCut,
		}
		lo, hi := row.EIG1Clique, row.EIG1Star
		if hi < lo {
			lo, hi = hi, lo
		}
		if lo > 0 {
			row.SpreadPct = (hi/lo - 1) * 100
		}
		rows[i] = row
	}
	return rows, nil
}

// FormatNetModel renders the fragility ablation.
func FormatNetModel(rows []NetModelRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation A6: net-model fragility (EIG1 clique vs star; IG-Match has no net model)")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Test\tEIG1/clique\tEIG1/star\tspread%\tIG-Match\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%.0f\t%s\t\n",
			r.Name, ratioStr(r.EIG1Clique), ratioStr(r.EIG1Star), r.SpreadPct, ratioStr(r.IGMatch))
	}
	w.Flush()
	return b.String()
}

// ---------------------------------------------------------------------------
// A2 — thresholding sparsification ablation.

// ThresholdRow holds IG-Match quality/size under net-size thresholds.
type ThresholdRow struct {
	Name       string
	Thresholds []int
	Ratios     []float64
	IGNonzeros []int
}

// ThresholdTable sweeps the IG construction threshold (0 = off).
func (s Suite) ThresholdTable(thresholds []int) ([]ThresholdRow, error) {
	s = s.withDefaults()
	if len(thresholds) == 0 {
		thresholds = []int{0, 16, 8, 4}
	}
	cfgs, hs, err := s.circuits()
	if err != nil {
		return nil, err
	}
	rows := make([]ThresholdRow, len(hs))
	for i, h := range hs {
		row := ThresholdRow{Name: cfgs[i].Name, Thresholds: thresholds}
		for _, th := range thresholds {
			opts := netmodel.IGOptions{Threshold: th}
			res, err := core.Partition(h, core.Options{IG: opts})
			if err != nil {
				return nil, fmt.Errorf("bench: threshold %d on %s: %w", th, cfgs[i].Name, err)
			}
			row.Ratios = append(row.Ratios, res.Metrics.RatioCut)
			row.IGNonzeros = append(row.IGNonzeros, netmodel.IntersectionGraph(h, opts).OffDiagNNZ())
		}
		rows[i] = row
	}
	return rows, nil
}

// FormatThreshold renders the thresholding ablation.
func FormatThreshold(rows []ThresholdRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation A2: IG thresholding (ratio cut / IG nonzeros per threshold; 0 = off)")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	if len(rows) > 0 {
		fmt.Fprint(w, "Test\t")
		for _, th := range rows[0].Thresholds {
			fmt.Fprintf(w, "T=%d\t\t", th)
		}
		fmt.Fprintln(w)
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t", r.Name)
		for i := range r.Thresholds {
			fmt.Fprintf(w, "%s\t%d\t", ratioStr(r.Ratios[i]), r.IGNonzeros[i])
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return b.String()
}

// ---------------------------------------------------------------------------
// A3 — recursive completion extension.

// RecursiveRow compares bulk Phase II against the recursive completion.
type RecursiveRow struct {
	Name      string
	Plain     partition.Metrics
	Recursive partition.Metrics
	Recursed  bool
}

// RecursiveTable runs IG-Match with and without the recursive extension.
func (s Suite) RecursiveTable() ([]RecursiveRow, error) {
	s = s.withDefaults()
	cfgs, hs, err := s.circuits()
	if err != nil {
		return nil, err
	}
	rows := make([]RecursiveRow, len(hs))
	for i, h := range hs {
		plain, err := core.Partition(h, core.Options{})
		if err != nil {
			return nil, err
		}
		rec, err := core.Partition(h, core.Options{RecursionDepth: 2})
		if err != nil {
			return nil, err
		}
		rows[i] = RecursiveRow{
			Name:      cfgs[i].Name,
			Plain:     plain.Metrics,
			Recursive: rec.Metrics,
			Recursed:  rec.Recursed,
		}
	}
	return rows, nil
}

// FormatRecursive renders the recursion ablation.
func FormatRecursive(rows []RecursiveRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Extension A3: recursive IG-Match completion")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Test\tbulk ratio\trecursive ratio\timproved\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%v\t\n",
			r.Name, ratioStr(r.Plain.RatioCut), ratioStr(r.Recursive.RatioCut), r.Recursed)
	}
	w.Flush()
	return b.String()
}

// ---------------------------------------------------------------------------
// A4 — FM post-refinement extension.

// RefineRow compares each spectral method with its FM-polished variant.
type RefineRow struct {
	Name           string
	IGMatch        float64
	IGMatchFM      float64
	EIG1           float64
	EIG1FM         float64
	IGMatchFMDelta float64 // percent improvement of polish over pure
}

// RefineTable runs the spectral+FM pipelines.
func (s Suite) RefineTable() ([]RefineRow, error) {
	s = s.withDefaults()
	cfgs, hs, err := s.circuits()
	if err != nil {
		return nil, err
	}
	rows := make([]RefineRow, len(hs))
	for i, h := range hs {
		igr, err := refine.IGMatchFM(h, core.Options{}, fm.Options{})
		if err != nil {
			return nil, err
		}
		egr, err := refine.EIG1FM(h, spectral.Options{}, fm.Options{})
		if err != nil {
			return nil, err
		}
		rows[i] = RefineRow{
			Name:           cfgs[i].Name,
			IGMatch:        igr.Spectral.RatioCut,
			IGMatchFM:      igr.Refined.RatioCut,
			EIG1:           egr.Spectral.RatioCut,
			EIG1FM:         egr.Refined.RatioCut,
			IGMatchFMDelta: ImprovementPct(igr.Spectral.RatioCut, igr.Refined.RatioCut),
		}
	}
	return rows, nil
}

// FormatRefine renders the refinement ablation.
func FormatRefine(rows []RefineRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Extension A4: FM post-refinement of spectral outputs")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Test\tIG-Match\t+FM\tEIG1\t+FM\tIG gain%\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%.1f\t\n",
			r.Name, ratioStr(r.IGMatch), ratioStr(r.IGMatchFM),
			ratioStr(r.EIG1), ratioStr(r.EIG1FM), r.IGMatchFMDelta)
	}
	w.Flush()
	return b.String()
}

// ---------------------------------------------------------------------------
// A5 — clustering condensation extension.

// ClusterRow compares the direct IG-Match solve with the condensed flow.
type ClusterRow struct {
	Name          string
	Direct        partition.Metrics
	DirectTime    time.Duration
	Condensed     partition.Metrics
	CondensedTime time.Duration
	CoarseModules int
}

// ClusterTable runs both pipelines per benchmark.
func (s Suite) ClusterTable() ([]ClusterRow, error) {
	s = s.withDefaults()
	cfgs, hs, err := s.circuits()
	if err != nil {
		return nil, err
	}
	rows := make([]ClusterRow, len(hs))
	for i, h := range hs {
		t0 := time.Now()
		direct, err := core.Partition(h, core.Options{})
		if err != nil {
			return nil, err
		}
		dt := time.Since(t0)
		t0 = time.Now()
		cond, err := condense.Partition(h, condense.Options{})
		if err != nil {
			return nil, err
		}
		ct := time.Since(t0)
		rows[i] = ClusterRow{
			Name:          cfgs[i].Name,
			Direct:        direct.Metrics,
			DirectTime:    dt,
			Condensed:     cond.Metrics,
			CondensedTime: ct,
			CoarseModules: cond.CoarseModules,
		}
	}
	return rows, nil
}

// FormatCluster renders the condensation ablation.
func FormatCluster(rows []ClusterRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Extension A5: clustering condensation vs direct solve")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Test\tdirect\ttime\tcondensed\ttime\tcoarse n\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%v\t%s\t%v\t%d\t\n",
			r.Name, ratioStr(r.Direct.RatioCut), r.DirectTime.Round(time.Millisecond),
			ratioStr(r.Condensed.RatioCut), r.CondensedTime.Round(time.Millisecond),
			r.CoarseModules)
	}
	w.Flush()
	return b.String()
}

// ---------------------------------------------------------------------------
// Eigen convergence detail (supporting the X2 runtime discussion).

// LanczosDetail reports the IG Laplacian eigensolve parameters for one
// circuit.
type LanczosDetail struct {
	Name    string
	Nets    int
	Lambda2 float64
	Elapsed time.Duration
}

// LanczosTable measures the IG Fiedler solve per benchmark.
func (s Suite) LanczosTable() ([]LanczosDetail, error) {
	s = s.withDefaults()
	cfgs, hs, err := s.circuits()
	if err != nil {
		return nil, err
	}
	rows := make([]LanczosDetail, len(hs))
	for i, h := range hs {
		q := netmodel.IGLaplacian(h, netmodel.IGOptions{})
		t0 := time.Now()
		res, err := eigen.Fiedler(q, eigen.Options{})
		if err != nil {
			return nil, fmt.Errorf("bench: Fiedler on %s: %w", cfgs[i].Name, err)
		}
		rows[i] = LanczosDetail{
			Name:    cfgs[i].Name,
			Nets:    h.NumNets(),
			Lambda2: res.Lambda2,
			Elapsed: time.Since(t0),
		}
	}
	return rows, nil
}

// FormatLanczos renders the eigensolver detail.
func FormatLanczos(rows []LanczosDetail) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Eigensolver: IG Laplacian second eigenpair per benchmark")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Test\tnets\tlambda2\ttime\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.4g\t%v\t\n", r.Name, r.Nets, r.Lambda2, r.Elapsed.Round(time.Millisecond))
	}
	w.Flush()
	return b.String()
}

// ---------------------------------------------------------------------------
// Multilevel V-cycle vs flat IG-Match — speed/quality tradeoff.

// MultilevelRow compares flat IG-Match against the multilevel V-cycle on
// one circuit, isolating the sweep stage (the O(m·(m+e)) part the V-cycle
// exists to shrink) from the end-to-end wall clock.
type MultilevelRow struct {
	Name         string
	Nets         int
	Flat         partition.Metrics
	FlatTime     time.Duration
	FlatSweep    time.Duration // flat run's sweep stage
	ML           partition.Metrics
	MLTime       time.Duration
	MLSweep      time.Duration // V-cycle's coarsest-level sweep stage
	Levels       int
	CoarsestNets int
	QualityPct   float64 // ratio-cut improvement of ML over flat (negative = worse)
	SweepSpeedup float64 // FlatSweep / MLSweep
}

// MultilevelTable runs both engines per benchmark with stage tracing and
// extracts the sweep-stage times from the span trees.
func (s Suite) MultilevelTable() ([]MultilevelRow, error) {
	s = s.withDefaults()
	cfgs, hs, err := s.circuits()
	if err != nil {
		return nil, err
	}
	sweepNS := func(root obs.Stage) time.Duration {
		if sw := root.Find("sweep"); sw != nil {
			return sw.Duration()
		}
		return 0
	}
	rows := make([]MultilevelRow, len(hs))
	for i, h := range hs {
		ftr := obs.NewTrace("flat")
		t0 := time.Now()
		flat, err := core.Partition(h, core.Options{Parallelism: s.Parallelism, Rec: ftr})
		ft := time.Since(t0)
		ftr.End()
		if err != nil {
			return nil, fmt.Errorf("bench: flat IG-Match on %s: %w", cfgs[i].Name, err)
		}
		mtr := obs.NewTrace("multilevel")
		t0 = time.Now()
		ml, err := engine.Run(engine.Multilevel, h, engine.Spec{
			Pipeline: engine.Pipeline{Parallelism: s.Parallelism, Rec: mtr}, Levels: s.Levels})
		mt := time.Since(t0)
		mtr.End()
		if err != nil {
			return nil, fmt.Errorf("bench: multilevel on %s: %w", cfgs[i].Name, err)
		}
		row := MultilevelRow{
			Name:         cfgs[i].Name,
			Nets:         h.NumNets(),
			Flat:         flat.Metrics,
			FlatTime:     ft,
			FlatSweep:    sweepNS(ftr.Finish()),
			ML:           ml.Metrics,
			MLTime:       mt,
			MLSweep:      sweepNS(mtr.Finish()),
			Levels:       ml.Levels,
			CoarsestNets: ml.CoarsestNets,
			QualityPct:   ImprovementPct(flat.Metrics.RatioCut, ml.Metrics.RatioCut),
		}
		if row.MLSweep > 0 {
			row.SweepSpeedup = float64(row.FlatSweep) / float64(row.MLSweep)
		}
		rows[i] = row
	}
	return rows, nil
}

// FormatMultilevel renders the V-cycle comparison.
func FormatMultilevel(rows []MultilevelRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Multilevel V-cycle vs flat IG-Match (sweep column isolates the coarsest-level sweep stage)")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Test\tnets\tflat\ttime\tsweep\tML\ttime\tsweep\tlv\tcoarse m\tsweep ×\tquality%\t")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%s\t%v\t%v\t%s\t%v\t%v\t%d\t%d\t%.1f\t%+.1f\t\n",
			r.Name, r.Nets,
			ratioStr(r.Flat.RatioCut), r.FlatTime.Round(time.Millisecond), r.FlatSweep.Round(time.Millisecond),
			ratioStr(r.ML.RatioCut), r.MLTime.Round(time.Millisecond), r.MLSweep.Round(time.Millisecond),
			r.Levels, r.CoarsestNets, r.SweepSpeedup, r.QualityPct)
	}
	w.Flush()
	return b.String()
}
