// Package engine is the one table of partitioning engines: it maps an
// engine name to the knobs the engine reads and their defaults, its
// preconditions, its run, and the lift of its result into one Outcome.
// The igpart CLI, the job service, the portfolio race, the experiment
// harness and the igpart facade each build a Spec and call the table.
package engine

import (
	"context"
	"fmt"
	"slices"
	"time"

	"igpart/internal/condense"
	"igpart/internal/core"
	"igpart/internal/eigen"
	"igpart/internal/fault"
	"igpart/internal/fm"
	"igpart/internal/hypergraph"
	"igpart/internal/igdiam"
	"igpart/internal/igvote"
	"igpart/internal/kl"
	"igpart/internal/multilevel"
	"igpart/internal/multiway"
	"igpart/internal/netmodel"
	"igpart/internal/obs"
	"igpart/internal/partition"
	"igpart/internal/portfolio"
	"igpart/internal/refine"
	"igpart/internal/spectral"
)

// The engine names: the igpart CLI's -algo values, and the service's
// algorithm names for the five it serves.
const (
	IGMatch      = "igmatch"
	Multilevel   = "multilevel"
	Portfolio    = "portfolio"
	IGVote       = "igvote"
	EIG1         = "eig1"
	RCut         = "rcut"
	KL           = "kl"
	Refined      = "refined"
	Condensed    = "condensed"
	Multiway     = "multiway"
	KWay         = "kway"
	KWaySpectral = "kway-spectral"
	IGDiam       = "igdiam"
)

// Pipeline holds the knobs of the IG-Match pipeline: the
// intersection-graph build, the eigensolve and the sweep. The igpart
// facade exports it as IGMatchOptions.
type Pipeline struct {
	// Scheme selects the intersection-graph edge weighting
	// (default netmodel.SchemePaper).
	Scheme netmodel.WeightScheme
	// Threshold, when positive, excludes nets above this size from the
	// eigensolve's intersection graph; completions remain exact.
	Threshold int
	// RecursionDepth enables the recursive completion extension.
	RecursionDepth int
	// Seed seeds the Lanczos starting vector (results are deterministic per
	// seed; the default seed is fine for production use).
	Seed int64
	// BlockSize selects the block Lanczos engine with the given block width
	// when > 1 — the paper's solver family, more robust on clustered or
	// degenerate eigenvalues. ≤ 1 uses single-vector Lanczos.
	BlockSize int
	// Parallelism bounds the concurrent IG-Match sweep shards (0 =
	// GOMAXPROCS, 1 = serial). Shards break metric ties by lowest split
	// rank, as the serial sweep does, so every value gives one result.
	Parallelism int
	// Reorth selects the Lanczos reorthogonalization: eigen.ReorthAuto
	// runs the full scheme below eigen.ReorthAutoCutoff nets and the
	// ω-monitored selective one above; ReorthFull or ReorthSelective
	// force either.
	Reorth eigen.ReorthMode
	// MatvecParallelism bounds the eigensolver's matvec workers (0 = auto:
	// parallel for large circuits; 1 = serial; <0 = GOMAXPROCS). Results
	// are bit-identical at every value.
	MatvecParallelism int
	// Rec, when non-nil, records the run's stage spans and counters.
	// Tracing never changes the result; nil costs nothing.
	Rec obs.Recorder
	// Ctx, when non-nil, cancels the run cooperatively: the pipeline polls
	// it per sweep split and Lanczos cycle and returns an error wrapping
	// ctx.Err(). A nil or background context keeps results bit-identical.
	Ctx context.Context
	// Fault, when non-nil, arms deterministic fault-injection points (see
	// fault.Parse); nil, the production default, costs nothing.
	Fault *fault.Injector
}

// Spec is the knobs of one engine run. An engine reads only its read
// set: Run zeroes the other knobs and fills the defaults of the ones it
// reads, so two specs that normalize equal run alike. Rec, Ctx and
// Fault reach every engine that takes them.
type Spec struct {
	Pipeline
	// Candidates, when positive, makes igmatch and each recursive kway
	// bisection complete that many evenly spaced splits instead of
	// sweeping every split.
	Candidates int
	// Levels is the V-cycle depth counting the input level (default 3);
	// CoarseningRatio is its largest per-round net shrink (default 0.9).
	Levels          int
	CoarseningRatio float64
	// K is a k-way run's part count and Eps its imbalance budget ε: every
	// part holds at most ⌈(1+ε)·n/K⌉ modules. Fixed[v] ∈ [0,K) pins
	// module v to that part, −1 leaves it free.
	K     int
	Eps   float64
	Fixed []int
	// Budget and Accept bound the portfolio race (see portfolio.Options).
	Budget time.Duration
	Accept float64
	// Starts is the rcut random-start count (default 10).
	Starts int
	// Warm, when non-nil, makes igmatch warm-start an ECO delta of the
	// netlist it runs on instead of solving that netlist cold.
	Warm *Warm
}

// Warm seeds an ECO warm start: the base result's net order and
// winning rank on the base netlist, and the delta to apply.
type Warm struct {
	Order []int
	Rank  int
	Delta portfolio.Delta
}

// Outcome is one engine run's result, whatever the engine.
type Outcome struct {
	// Result is the bipartition and its metrics (nil for a k-way run)
	// and, for the IG-Match sweeps, the sweep state: λ₂, the net order,
	// the winning rank and the matching bound BestMatching. The V-cycle
	// reports its coarsest level's λ₂, a race its winner's state.
	core.Result
	// KWay is a k-way run's parts and metrics; Part is nil otherwise.
	KWay multiway.Result
	// H, Cold and TouchedNets describe a warm start: the netlist the
	// delta produced, which Result partitions; that a cold solve ran
	// instead, the delta being too large; the delta's size.
	H           *hypergraph.Hypergraph
	Cold        bool
	TouchedNets int
	// Levels, CoarsestNets and CoarsestOnInput describe the V-cycle: the
	// levels built, the coarsest net count and solution on the input.
	Levels          int
	CoarsestNets    int
	CoarsestOnInput partition.Metrics
	// Race is a race's winner, acceptance, features and contenders.
	Race portfolio.Result
}

// Engine is one entry of the table.
type Engine struct {
	// Name is the CLI and wire name; Label names the engine in reports,
	// /metrics counters and as a race's winner.
	Name, Label string
	// KWay marks the engines that return K parts, not a bipartition.
	KWay bool
	// sweep marks the engines whose IG-Match sweep needs 2 nets.
	sweep bool
	// reads copies the knobs the engine reads from s into n and fills
	// their defaults (nil reads none); run runs the engine under a
	// normalized spec and lifts its result.
	reads func(n *Spec, s Spec)
	run   func(h *hypergraph.Hypergraph, s Spec) (Outcome, error)
}

// table lists the engines in the order the CLI documents them. init
// fills it: the race looks its contenders up in it.
var table []Engine

func init() {
	table = []Engine{
		{Name: IGMatch, Label: portfolio.AlgIGMatch, sweep: true, run: igMatch,
			reads: func(n *Spec, s Spec) { n.Pipeline, n.Candidates, n.Warm = s.Pipeline, s.Candidates, s.Warm }},
		{Name: Multilevel, Label: portfolio.AlgMultilevel, sweep: true, reads: func(n *Spec, s Spec) {
			n.Pipeline, n.RecursionDepth = s.Pipeline, 0
			n.Levels, n.CoarseningRatio = s.Levels, s.CoarseningRatio
			if n.Levels <= 0 {
				n.Levels = 3
			}
			if n.CoarseningRatio <= 0 || n.CoarseningRatio > 1 {
				n.CoarseningRatio = 0.9
			}
		}, run: func(h *hypergraph.Hypergraph, s Spec) (Outcome, error) {
			r, err := multilevel.Partition(h, multilevel.Options{
				Levels: s.Levels, CoarseningRatio: s.CoarseningRatio, Core: coreOptions(s), Rec: s.Rec,
			})
			return Outcome{
				Result: core.Result{Partition: r.Partition, Metrics: r.Metrics, Lambda2: r.Coarsest.Lambda2},
				Levels: r.Levels, CoarsestNets: r.CoarsestNets, CoarsestOnInput: r.CoarsestOnInput,
			}, err
		}},
		// The race reads none of scheme, threshold and block size.
		{Name: Portfolio, Label: "Portfolio", run: race, reads: func(n *Spec, s Spec) {
			n.Seed, n.Parallelism, n.Budget, n.Accept = s.Seed, s.Parallelism, s.Budget, s.Accept
		}},
		{Name: IGVote, Label: "IG-Vote", run: func(h *hypergraph.Hypergraph, _ Spec) (Outcome, error) {
			r, err := igvote.Partition(h, igvote.Options{})
			return bipartition(r.Partition, r.Metrics), err
		}},
		{Name: EIG1, Label: portfolio.AlgEIG1, reads: seed, run: func(h *hypergraph.Hypergraph, s Spec) (Outcome, error) {
			r, err := spectral.Partition(h, spectral.Options{
				Eigen: eigen.Options{Seed: s.Seed, Rec: s.Rec, Ctx: s.Ctx, Fault: s.Fault},
			})
			return Outcome{Result: core.Result{Partition: r.Partition, Metrics: r.Metrics, Lambda2: r.Lambda2}}, err
		}},
		{Name: RCut, Label: "RCut", reads: func(n *Spec, s Spec) {
			n.Seed, n.Starts = s.Seed, s.Starts
			if n.Starts <= 0 {
				n.Starts = 10 // the paper's best-of-10
			}
		}, run: func(h *hypergraph.Hypergraph, s Spec) (Outcome, error) {
			r, err := fm.RatioCut(h, fm.Options{Starts: s.Starts, Seed: s.Seed})
			return bipartition(r.Partition, r.Metrics), err
		}},
		{Name: KL, Label: "KL", reads: seed, run: func(h *hypergraph.Hypergraph, s Spec) (Outcome, error) {
			r, err := kl.Bisect(h, kl.Options{Seed: s.Seed})
			return bipartition(r.Partition, r.Metrics), err
		}},
		{Name: Refined, Label: "Refined", run: func(h *hypergraph.Hypergraph, s Spec) (Outcome, error) {
			r, err := refine.IGMatchFM(h, coreOptions(s), fm.Options{})
			return bipartition(r.Partition, r.Refined), err
		}},
		{Name: Condensed, Label: "Condensed", run: func(h *hypergraph.Hypergraph, _ Spec) (Outcome, error) {
			r, err := condense.Partition(h, condense.Options{})
			return bipartition(r.Partition, r.Metrics), err
		}},
		// Multiway is recursive IG-Match bisection with no imbalance budget.
		{Name: Multiway, Label: "Multiway", KWay: true, run: kway(false),
			reads: func(n *Spec, s Spec) { n.K, n.Eps, n.Fixed = s.K, multiway.Unbounded, s.Fixed }},
		{Name: KWay, Label: "KWay", KWay: true, run: kway(false), reads: func(n *Spec, s Spec) {
			n.Pipeline, n.RecursionDepth = s.Pipeline, 0
			n.Candidates, n.K, n.Eps, n.Fixed = s.Candidates, s.K, s.Eps, s.Fixed
		}},
		// The spectral engine solves on the module Laplacian, which reads
		// neither scheme nor threshold, and sweeps no candidates.
		{Name: KWaySpectral, Label: "KWay-Spectral", KWay: true, run: kway(true), reads: func(n *Spec, s Spec) {
			n.Seed, n.BlockSize, n.Parallelism = s.Seed, s.BlockSize, s.Parallelism
			n.Reorth, n.MatvecParallelism = s.Reorth, s.MatvecParallelism
			n.K, n.Eps, n.Fixed = s.K, s.Eps, s.Fixed
		}},
		{Name: IGDiam, Label: "IG-Diam", run: func(h *hypergraph.Hypergraph, _ Spec) (Outcome, error) {
			r, err := igdiam.Partition(h)
			return bipartition(r.Partition, r.Metrics), err
		}},
	}
}

// seed is the read set of the engines whose one knob is the seed.
func seed(n *Spec, s Spec) { n.Seed = s.Seed }

// Engines returns a copy of the table, in the order the CLI documents it.
func Engines() []Engine { return slices.Clone(table) }

// Lookup returns the engine named name.
func Lookup(name string) (Engine, bool) {
	return find(func(e Engine) bool { return e.Name == name })
}

// ByLabel returns the engine labelled label.
func ByLabel(label string) (Engine, bool) {
	return find(func(e Engine) bool { return e.Label == label })
}

func find(match func(Engine) bool) (Engine, bool) {
	for _, e := range table {
		if match(e) {
			return e, true
		}
	}
	return Engine{}, false
}

// Run runs the engine named name on h under s.
func Run(name string, h *hypergraph.Hypergraph, s Spec) (Outcome, error) {
	e, ok := Lookup(name)
	if !ok {
		return Outcome{}, fmt.Errorf("engine: unknown engine %q", name)
	}
	return e.Run(h, s)
}

// Run normalizes s, checks e's preconditions and runs e on h. With an
// error it returns the zero Outcome.
func (e Engine) Run(h *hypergraph.Hypergraph, s Spec) (Outcome, error) {
	s = e.Normalize(s)
	if err := e.Check(h, s); err != nil {
		return Outcome{}, fmt.Errorf("%s: %w", e.Name, err)
	}
	out, err := e.run(h, s)
	if err != nil {
		return Outcome{}, err
	}
	return out, nil
}

// Normalize returns s with the knobs e does not read zeroed and the
// defaults of those it reads filled in. Rec, Ctx and Fault pass through.
func (e Engine) Normalize(s Spec) Spec {
	n := Spec{Pipeline: Pipeline{Rec: s.Rec, Ctx: s.Ctx, Fault: s.Fault}}
	if e.reads != nil {
		e.reads(&n, s)
	}
	n.Threshold, n.BlockSize = max(n.Threshold, 0), max(n.BlockSize, 0)
	return n
}

// Check returns what keeps e from ever running on h under s: a block
// wider than the net count, whether e reads the block size or not (the
// eigenproblem's dimension is the net count, so such a block is a unit
// confusion on the caller's side), then e's own preconditions on s
// normalized. The zero Engine checks the block width alone.
func (e Engine) Check(h *hypergraph.Hypergraph, s Spec) error {
	m := h.NumNets()
	if s.BlockSize > m {
		return fmt.Errorf("block size %d exceeds net count %d", s.BlockSize, m)
	}
	if e.sweep && m < 2 {
		// The IG-Match sweep splits the Fiedler order of the nets, and one
		// net has no split. Portfolio and k-way have engines that need none.
		return fmt.Errorf("the IG-Match sweep needs at least 2 nets, netlist has %d", m)
	}
	if !e.KWay {
		return nil
	}
	s = e.Normalize(s)
	_, err := multiway.CheckContract(h.NumModules(), s.K, s.Eps, s.Fixed)
	return err
}

// coreOptions is the one mapping of a spec onto the IG-Match pipeline's
// options.
func coreOptions(s Spec) core.Options {
	return core.Options{
		IG:             netmodel.IGOptions{Scheme: s.Scheme, Threshold: s.Threshold},
		Eigen:          eigen.Options{Seed: s.Seed, BlockSize: s.BlockSize, ReorthMode: s.Reorth, MatvecWorkers: s.MatvecParallelism},
		RecursionDepth: s.RecursionDepth, Parallelism: s.Parallelism,
		Rec: s.Rec, Ctx: s.Ctx, Fault: s.Fault,
	}
}

// bipartition lifts a plain bipartition.
func bipartition(p *partition.Bipartition, m partition.Metrics) Outcome {
	return Outcome{Result: core.Result{Partition: p, Metrics: m}}
}

// igMatch runs the full sweep, the candidate sweep, or a warm start.
func igMatch(h *hypergraph.Hypergraph, s Spec) (Outcome, error) {
	if w := s.Warm; w != nil {
		// Warm-start from the base's sweep state, or the cold fallback past
		// the perturbation threshold. WarmStart applies the delta.
		r, err := portfolio.WarmStart(h, w.Order, w.Rank, w.Delta, coreOptions(s))
		return Outcome{Result: r.Result, H: r.H, Cold: r.Cold, TouchedNets: r.TouchedNets}, err
	}
	if s.Candidates > 0 {
		r, err := core.PartitionCandidates(h, s.Candidates, coreOptions(s))
		return Outcome{Result: r}, err
	}
	r, err := core.Partition(h, coreOptions(s))
	return Outcome{Result: r}, err
}

// kway runs the balanced k-way engine, recursive or spectral.
func kway(spectral bool) func(*hypergraph.Hypergraph, Spec) (Outcome, error) {
	return func(h *hypergraph.Hypergraph, s Spec) (Outcome, error) {
		r, err := multiway.Partition(h, multiway.Options{
			K: s.K, Eps: s.Eps, Fixed: s.Fixed, Spectral: spectral,
			Candidates: s.Candidates, Core: coreOptions(s),
		})
		return Outcome{KWay: r}, err
	}
}

// race runs the portfolio. Its contenders run through the table under
// the race's seed, parallelism and fault injector, each under its own
// contender span and context.
func race(h *hypergraph.Hypergraph, s Spec) (Outcome, error) {
	run := func(ctx context.Context, alg string, h *hypergraph.Hypergraph, rec obs.Recorder) (portfolio.Result, error) {
		e, candidates, ok := contender(alg)
		if !ok {
			return portfolio.Result{}, fmt.Errorf("engine: unknown contender %q", alg)
		}
		o, err := e.Run(h, Spec{Pipeline: Pipeline{Seed: s.Seed, Parallelism: s.Parallelism, Rec: rec, Ctx: ctx, Fault: s.Fault},
			Candidates: candidates})
		return portfolio.Result{Partition: o.Partition, Metrics: o.Metrics,
			NetOrder: o.NetOrder, BestRank: o.BestRank, Lambda2: o.Lambda2}, err
	}
	r, err := portfolio.Race(h, portfolio.Options{Budget: s.Budget, Accept: s.Accept, Rec: s.Rec, Ctx: s.Ctx}, run)
	return Outcome{Result: core.Result{Partition: r.Partition, Metrics: r.Metrics,
		NetOrder: r.NetOrder, BestRank: r.BestRank, Lambda2: r.Lambda2}, Race: r}, err
}

// contender resolves a lineup name to its engine and candidate budget:
// IG-Candidates is igmatch at core.DefaultCandidates.
func contender(alg string) (e Engine, candidates int, ok bool) {
	if alg == portfolio.AlgCandidates {
		alg, candidates = portfolio.AlgIGMatch, core.DefaultCandidates
	}
	e, ok = ByLabel(alg)
	return e, candidates, ok
}
