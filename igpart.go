// Package igpart is a circuit netlist partitioning library built around
// intersection-graph spectral partitioning: the IG-Match algorithm of Cong,
// Hagen and Kahng ("Net Partitions Yield Better Module Partitions", DAC
// 1992), together with the baselines it was evaluated against and the
// substrates they all share.
//
// A netlist is a hypergraph: modules (gates, cells) are vertices and signal
// nets are hyperedges. IG-Match partitions the *nets* first — it sorts the
// second eigenvector of the Laplacian of the netlist's intersection graph
// (one vertex per net, edges between nets sharing a module), sweeps every
// split of that ordering, and completes each net bipartition into a module
// bipartition with a maximum-matching computation that provably cuts no
// more nets than the matching size. The best ratio-cut completion wins.
//
// Quick start:
//
//	h, err := igpart.Load("design.hgr")          // or igpart.NewBuilder()
//	res, err := igpart.IGMatch(h)
//	fmt.Println(res.Metrics)                      // areas, net cut, ratio cut
//
// The package also provides:
//
//   - IGVote, EIG1, RCut, KL: the comparison algorithms from the paper.
//   - Refined and Condensed: the Section 5 hybrid flows (FM polishing and
//     cluster condensation).
//   - Generate: a synthetic benchmark generator reproducing the structural
//     properties of the MCNC circuits the paper evaluates on.
//
// Everything is deterministic for a fixed seed; IG-Match itself needs no
// seed at all (a single run suffices — the stability property the paper
// emphasizes over multi-start iterative methods). The sweep over all net
// orderings shards across cores (IGMatchOptions.Parallelism, default
// GOMAXPROCS) and remains bit-identical to the serial engine at every
// parallelism level.
package igpart

import (
	"context"
	"io"
	"time"

	"igpart/internal/anneal"
	"igpart/internal/condense"
	"igpart/internal/core"
	"igpart/internal/eigen"
	"igpart/internal/fault"
	"igpart/internal/features"
	"igpart/internal/flow"
	"igpart/internal/fm"
	"igpart/internal/hypergraph"
	"igpart/internal/igdiam"
	"igpart/internal/igvote"
	"igpart/internal/kl"
	"igpart/internal/multilevel"
	"igpart/internal/multiway"
	"igpart/internal/netgen"
	"igpart/internal/netmodel"
	"igpart/internal/obs"
	"igpart/internal/partition"
	"igpart/internal/place"
	"igpart/internal/portfolio"
	"igpart/internal/refine"
	"igpart/internal/spectral"
)

// Netlist is a circuit hypergraph: modules connected by multi-pin signal
// nets. Construct one with NewBuilder, Load, or Generate.
type Netlist = hypergraph.Hypergraph

// Builder assembles a Netlist incrementally.
type Builder = hypergraph.Builder

// Bipartition assigns each module to side U or W.
type Bipartition = partition.Bipartition

// Metrics reports net cut, side sizes, and ratio cut for a bipartition.
type Metrics = partition.Metrics

// Side identifies a partition side.
type Side = partition.Side

// The two sides of a bipartition.
const (
	U = partition.U
	W = partition.W
)

// GenConfig parameterizes the synthetic benchmark generator.
type GenConfig = netgen.Config

// WeightScheme selects the intersection-graph edge weighting.
type WeightScheme = netmodel.WeightScheme

// The available intersection-graph weightings (SchemePaper is the formula
// from Section 2.2 of the paper).
const (
	SchemePaper   = netmodel.SchemePaper
	SchemeUnit    = netmodel.SchemeUnit
	SchemeOverlap = netmodel.SchemeOverlap
	SchemeMinSize = netmodel.SchemeMinSize
)

// ReorthMode selects the Lanczos reorthogonalization scheme.
type ReorthMode = eigen.ReorthMode

// The reorthogonalization modes: ReorthAuto (the default) uses full
// reorthogonalization below ReorthAutoCutoff nets and the
// ω-recurrence-monitored selective scheme above it; the other two force
// one engine. Selective mode matches full-mode Fiedler pairs to solver
// tolerance while skipping most reorthogonalization work on large
// circuits.
const (
	ReorthAuto      = eigen.ReorthAuto
	ReorthFull      = eigen.ReorthFull
	ReorthSelective = eigen.ReorthSelective
)

// ReorthAutoCutoff is the net count at which ReorthAuto switches from
// full to selective reorthogonalization.
const ReorthAutoCutoff = eigen.ReorthAutoCutoff

// ParseReorthMode parses "auto" (or ""), "full", or "selective" — the
// accepted values of a -reorth CLI flag.
func ParseReorthMode(s string) (ReorthMode, error) { return eigen.ParseReorthMode(s) }

// NewBuilder returns an empty netlist builder.
func NewBuilder() *Builder { return hypergraph.NewBuilder() }

// Load reads a netlist from disk (.hgr for the hMETIS-style format,
// anything else for the named `module`/`net` format).
func Load(path string) (*Netlist, error) { return hypergraph.LoadFile(path) }

// Save writes a netlist to disk, dispatching on extension like Load.
func Save(path string, h *Netlist) error { return hypergraph.SaveFile(path, h) }

// Generate produces a synthetic benchmark circuit.
func Generate(cfg GenConfig) (*Netlist, error) { return netgen.Generate(cfg) }

// Benchmark returns the named preset from the paper's evaluation suite
// (bm1, 19ks, Prim1, Prim2, Test02–Test06) — see BenchmarkNames.
func Benchmark(name string) (GenConfig, bool) { return netgen.ByName(name) }

// BenchmarkNames lists the benchmark presets in the paper's table order.
func BenchmarkNames() []string { return netgen.Names() }

// Evaluate computes the metric set of p on h.
func Evaluate(h *Netlist, p *Bipartition) Metrics { return partition.Evaluate(h, p) }

// NewBipartition returns a bipartition of n modules, all on side U.
func NewBipartition(n int) *Bipartition { return partition.New(n) }

// IsNetCut reports whether net e has pins on both sides of p.
func IsNetCut(h *Netlist, p *Bipartition, e int) bool { return partition.IsNetCut(h, p, e) }

// Result is the common shape returned by every partitioner in this package.
type Result struct {
	// Partition is the module bipartition found.
	Partition *Bipartition
	// Metrics evaluates Partition on the input netlist.
	Metrics Metrics
}

// IGMatchOptions tunes IGMatch.
type IGMatchOptions struct {
	// Scheme selects the intersection-graph edge weighting
	// (default SchemePaper).
	Scheme WeightScheme
	// Threshold, when positive, excludes nets above this size from the
	// eigensolve's intersection graph (sparsification; completions remain
	// exact).
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
	// Parallelism bounds the number of concurrent shards of the IG-Match
	// sweep (0 = GOMAXPROCS, 1 = serial). The result is bit-identical for
	// every value: shards reduce deterministically with metric ties broken
	// by lowest split rank, matching the serial sweep order.
	Parallelism int
	// Reorth selects the Lanczos reorthogonalization mode. The default,
	// ReorthAuto, keeps the historical full scheme below ReorthAutoCutoff
	// nets and switches to selective (ω-recurrence-monitored)
	// reorthogonalization above it; ReorthFull and ReorthSelective force
	// either engine.
	Reorth ReorthMode
	// MatvecParallelism bounds the eigensolver's matvec workers (0 = auto:
	// parallel for large circuits; 1 = serial; <0 = GOMAXPROCS). Results
	// are bit-identical at every value.
	MatvecParallelism int
	// Rec, when non-nil, records per-stage timing spans and counters for
	// the run (see NewTrace). Tracing never changes the result; leaving
	// it nil costs nothing on the hot path.
	Rec Recorder
	// Ctx, when non-nil, enables cooperative cancellation: the pipeline
	// polls it at sweep-split and Lanczos-cycle granularity and returns
	// an error wrapping ctx.Err() promptly once it fires (use
	// errors.Is(err, context.Canceled) / context.DeadlineExceeded to
	// detect it). A nil or background context changes nothing — results
	// stay bit-identical.
	Ctx context.Context
	// Fault, when non-nil, arms deterministic fault-injection points in
	// the pipeline (see ParseFaultSpec). Nil — the production default —
	// disarms every point at zero cost.
	Fault *FaultInjector
}

// IGMatchResult extends Result with IG-Match-specific detail.
type IGMatchResult struct {
	Result
	// Lambda2 is the second-smallest eigenvalue of the intersection-graph
	// Laplacian.
	Lambda2 float64
	// NetOrder is the eigenvector-sorted net ordering driving the sweep.
	NetOrder []int
	// BestRank is the winning split position in NetOrder.
	BestRank int
	// MatchingBound is the maximum-matching size at the winning split — a
	// certified upper bound on the nets the completion cut (Theorem 5).
	MatchingBound int
}

// IGMatch partitions h with the paper's IG-Match algorithm.
func IGMatch(h *Netlist, opts ...IGMatchOptions) (IGMatchResult, error) {
	return igMatch(h, core.Partition, opts)
}

// IGMatchCandidates runs the million-net-scale variant of IG-Match: the
// same eigenvector ordering, but instead of sweeping all m−1 splits (the
// full sweep is quadratic in the worst case — Theorem 6), it completes
// `candidates` evenly spaced splits, each bootstrapped independently and
// evaluated in parallel with the same lowest-rank-wins reduction as the
// full sweep. candidates ≤ 0 uses the default of 32. On the paper-scale
// circuits the full sweep is affordable and strictly at least as good;
// above ~10⁵ nets the candidate sweep is the practical choice.
func IGMatchCandidates(h *Netlist, candidates int, opts ...IGMatchOptions) (IGMatchResult, error) {
	return igMatch(h, func(h *Netlist, co core.Options) (core.Result, error) {
		return core.PartitionCandidates(h, candidates, co)
	}, opts)
}

// igMatch is the one IGMatchOptions-to-core mapping behind IGMatch and
// IGMatchCandidates: it builds core.Options from the first of opts (the
// zero value when absent), runs solve, and lifts core's result.
func igMatch(h *Netlist, solve func(*Netlist, core.Options) (core.Result, error), opts []IGMatchOptions) (IGMatchResult, error) {
	var o IGMatchOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	res, err := solve(h, core.Options{
		IG: netmodel.IGOptions{Scheme: o.Scheme, Threshold: o.Threshold},
		Eigen: eigen.Options{
			Seed: o.Seed, BlockSize: o.BlockSize,
			ReorthMode: o.Reorth, MatvecWorkers: o.MatvecParallelism,
		},
		RecursionDepth: o.RecursionDepth,
		Parallelism:    o.Parallelism,
		Rec:            o.Rec,
		Ctx:            o.Ctx,
		Fault:          o.Fault,
	})
	if err != nil {
		return IGMatchResult{}, err
	}
	return IGMatchResult{
		Result:        Result{Partition: res.Partition, Metrics: res.Metrics},
		Lambda2:       res.Lambda2,
		NetOrder:      res.NetOrder,
		BestRank:      res.BestRank,
		MatchingBound: res.BestMatching,
	}, nil
}

// MultilevelOptions tunes MultilevelIGMatch.
type MultilevelOptions struct {
	// Levels is the total V-cycle depth counting the input level: 1
	// disables coarsening and reproduces flat IGMatch bit for bit; higher
	// values halve the net count per extra level before the eigensolve and
	// sweep. Default 3. Coarsening stops early when matching stalls (see
	// CoarseningRatio).
	Levels int
	// CoarseningRatio is the largest acceptable per-round net shrink
	// factor; a matching round keeping more than this fraction of the nets
	// stops the descent. Default 0.9.
	CoarseningRatio float64
	// Scheme selects the intersection-graph edge weighting, used both for
	// the coarsest eigensolve and as the heavy-edge affinity for net
	// matching (default SchemePaper).
	Scheme WeightScheme
	// Threshold excludes nets above this size from the eigensolve IG.
	Threshold int
	// Seed seeds the coarsest-level Lanczos starting vector.
	Seed int64
	// BlockSize selects block Lanczos at the coarsest level when > 1.
	BlockSize int
	// Parallelism bounds the concurrent sweep shards of the coarsest-level
	// solve (0 = GOMAXPROCS, 1 = serial).
	Parallelism int
	// Reorth selects the coarsest-level Lanczos reorthogonalization mode
	// (see IGMatchOptions.Reorth).
	Reorth ReorthMode
	// MatvecParallelism bounds the coarsest-level eigensolver's matvec
	// workers (see IGMatchOptions.MatvecParallelism).
	MatvecParallelism int
	// Rec, when non-nil, records the V-cycle stage spans (coarsening
	// rounds, coarsest-solve pipeline breakdown, per-level uncoarsening).
	Rec Recorder
	// Ctx, when non-nil, enables cooperative cancellation of the V-cycle:
	// polled at every coarsening round and uncoarsening level and
	// threaded into the coarsest-level solve. A nil or background context
	// changes nothing.
	Ctx context.Context
	// Fault arms deterministic fault-injection points in the
	// coarsest-level solve (see ParseFaultSpec). Nil disarms everything.
	Fault *FaultInjector
}

// MultilevelResult extends Result with V-cycle detail.
type MultilevelResult struct {
	Result
	// Levels is the number of levels actually built.
	Levels int
	// CoarsestNets is the net count of the coarsest level solved.
	CoarsestNets int
	// CoarsestOnInput evaluates the coarsest-level solution directly on
	// the input netlist; the refined result is never worse.
	CoarsestOnInput Metrics
}

// MultilevelIGMatch partitions h with the multilevel V-cycle: nets are
// merged by heavy-edge intersection-graph affinity until the netlist is
// small, the coarsest level is solved by flat IGMatch, and the net
// bipartition is projected back level by level under König re-completion
// and FM refinement. Levels=1 is bit-identical to IGMatch; deeper cycles
// trade a bounded amount of quality for a much cheaper eigensolve and
// sweep.
func MultilevelIGMatch(h *Netlist, opts ...MultilevelOptions) (MultilevelResult, error) {
	var o MultilevelOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	res, err := multilevel.Partition(h, multilevel.Options{
		Levels:          o.Levels,
		CoarseningRatio: o.CoarseningRatio,
		Core: core.Options{
			IG: netmodel.IGOptions{Scheme: o.Scheme, Threshold: o.Threshold},
			Eigen: eigen.Options{
				Seed: o.Seed, BlockSize: o.BlockSize,
				ReorthMode: o.Reorth, MatvecWorkers: o.MatvecParallelism,
			},
			Parallelism: o.Parallelism,
			Ctx:         o.Ctx,
			Fault:       o.Fault,
		},
		Rec: o.Rec,
	})
	if err != nil {
		return MultilevelResult{}, err
	}
	return MultilevelResult{
		Result:          Result{Partition: res.Partition, Metrics: res.Metrics},
		Levels:          res.Levels,
		CoarsestNets:    res.CoarsestNets,
		CoarsestOnInput: res.CoarsestOnInput,
	}, nil
}

// PortfolioOptions tunes Portfolio.
type PortfolioOptions struct {
	// Budget bounds the whole race; contenders still running when it
	// expires are cancelled and the best finished result wins. 0 waits
	// for every contender.
	Budget time.Duration
	// Accept, when positive, is the acceptance ratio-cut bound: the
	// first contender finishing at or under it wins immediately and
	// the rest are cancelled. Note this makes the winner depend on
	// contender timing; leave it 0 for a deterministic best-of-lineup.
	Accept float64
	// Parallelism bounds each contender's sweep shards.
	Parallelism int
	// Seed seeds the contenders' eigensolvers.
	Seed int64
	// Rec records one span per contender plus portfolio.* counters.
	Rec Recorder
	// Ctx cancels the whole race when it fires.
	Ctx context.Context
}

// The portfolio contender names.
const (
	PortfolioAlgIGMatch    = portfolio.AlgIGMatch
	PortfolioAlgMultilevel = portfolio.AlgMultilevel
	PortfolioAlgEIG1       = portfolio.AlgEIG1
	PortfolioAlgCandidates = portfolio.AlgCandidates
)

// PortfolioResult is the outcome of a portfolio race.
type PortfolioResult = portfolio.Result

// NetlistFeatures is the cheap structural feature vector (size, pin
// density, distribution shape) driving portfolio lineup selection.
type NetlistFeatures = features.Vector

// ExtractFeatures computes the feature vector of h in one O(pins) walk.
func ExtractFeatures(h *Netlist) NetlistFeatures { return features.Extract(h) }

// Portfolio partitions h adaptively: it extracts the netlist's feature
// vector, picks a starting lineup of engines suited to the instance
// class ({IG-Match, ML-IGMatch, EIG1, candidate sweep}), and races them
// under one budgeted context — first result under the acceptance bound
// wins and cancels the losers, otherwise the best result standing at
// the deadline wins.
func Portfolio(h *Netlist, opts ...PortfolioOptions) (PortfolioResult, error) {
	var o PortfolioOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	return portfolio.Race(h, portfolio.Options{
		Budget:      o.Budget,
		Accept:      o.Accept,
		Parallelism: o.Parallelism,
		Seed:        o.Seed,
		Rec:         o.Rec,
		Ctx:         o.Ctx,
	})
}

// NetlistDelta is an ECO (engineering change order) against a base
// netlist: nets added or removed, pins added or removed on surviving
// nets. Apply one incrementally with WarmStart, or PATCH it to a
// running igpartd.
type NetlistDelta = portfolio.Delta

// DeltaPin names one (net, module) incidence in a NetlistDelta.
type DeltaPin = portfolio.PinRef

// WarmStartResult is the outcome of a WarmStart solve.
type WarmStartResult = portfolio.WarmResult

// WarmStart re-partitions a previously solved netlist after an ECO
// delta, reusing the cached net ordering and best split from the base
// IGMatch result: only a rank window around the carried-over winner is
// swept (plus a sparse global probe) — no eigensolve at all. Deltas
// perturbing more than a quarter of the nets fall back to a cold solve.
// An empty delta reproduces the base result bit for bit.
func WarmStart(h *Netlist, base IGMatchResult, d NetlistDelta, opts ...IGMatchOptions) (WarmStartResult, error) {
	var o IGMatchOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	return portfolio.WarmStart(h, base.NetOrder, base.BestRank, d, portfolio.WarmOptions{
		Core: core.Options{
			IG: netmodel.IGOptions{Scheme: o.Scheme, Threshold: o.Threshold},
			Eigen: eigen.Options{
				Seed: o.Seed, BlockSize: o.BlockSize,
				ReorthMode: o.Reorth, MatvecWorkers: o.MatvecParallelism,
			},
			Parallelism: o.Parallelism,
			Rec:         o.Rec,
			Ctx:         o.Ctx,
			Fault:       o.Fault,
		},
	})
}

// IGVote partitions h with the Hagen–Kahng IG-Vote heuristic (the EIG1-IG
// algorithm of the paper's Appendix B).
func IGVote(h *Netlist) (Result, error) {
	res, err := igvote.Partition(h, igvote.Options{})
	if err != nil {
		return Result{}, err
	}
	return Result{Partition: res.Partition, Metrics: res.Metrics}, nil
}

// EIG1 partitions h with the Hagen–Kahng module-side spectral heuristic
// (clique net model, sorted Fiedler vector, best ratio-cut split).
func EIG1(h *Netlist) (Result, error) {
	res, err := spectral.Partition(h, spectral.Options{})
	if err != nil {
		return Result{}, err
	}
	return Result{Partition: res.Partition, Metrics: res.Metrics}, nil
}

// RCut partitions h with the multi-start FM-style ratio-cut optimizer
// standing in for Wei–Cheng RCut1.0. starts ≤ 0 selects the paper's
// best-of-10.
func RCut(h *Netlist, starts int, seed int64) (Result, error) {
	if starts <= 0 {
		starts = 10
	}
	res, err := fm.RatioCut(h, fm.Options{Starts: starts, Seed: seed})
	if err != nil {
		return Result{}, err
	}
	return Result{Partition: res.Partition, Metrics: res.Metrics}, nil
}

// IGDiam partitions h with the diameter-based intersection-graph heuristic
// (Kahng, DAC 1989 — the earliest IG partitioner the paper cites).
func IGDiam(h *Netlist) (Result, error) {
	res, err := igdiam.Partition(h)
	if err != nil {
		return Result{}, err
	}
	return Result{Partition: res.Partition, Metrics: res.Metrics}, nil
}

// KL bisects h with Kernighan–Lin on the clique-model graph.
func KL(h *Netlist, seed int64) (Result, error) {
	res, err := kl.Bisect(h, kl.Options{Seed: seed})
	if err != nil {
		return Result{}, err
	}
	return Result{Partition: res.Partition, Metrics: res.Metrics}, nil
}

// Anneal partitions h with simulated annealing on the ratio-cut objective
// (the stochastic class of Section 1.1).
func Anneal(h *Netlist, seed int64) (Result, error) {
	res, err := anneal.RatioCut(h, anneal.Options{Seed: seed})
	if err != nil {
		return Result{}, err
	}
	return Result{Partition: res.Partition, Metrics: res.Metrics}, nil
}

// MinCut finds a small net cut by max-flow over a few well-spread
// source/sink pairs — the Section 1.1 "Minimum Cut" formulation. The cut
// is provably minimum for the best pair tried; as the paper notes, it
// usually divides the circuit very unevenly.
func MinCut(h *Netlist) (Result, error) {
	res, err := flow.BestOverPairs(h, 6)
	if err != nil {
		return Result{}, err
	}
	return Result{Partition: res.Partition, Metrics: res.Metrics}, nil
}

// MinNetCutBetween computes the exact minimum net cut separating modules s
// and t (max-flow/min-cut on the net-splitting gadget network).
func MinNetCutBetween(h *Netlist, s, t int) (Result, int, error) {
	res, err := flow.MinNetCut(h, s, t)
	if err != nil {
		return Result{}, 0, err
	}
	return Result{Partition: res.Partition, Metrics: res.Metrics}, res.MaxFlow, nil
}

// Refined runs IG-Match and polishes the result with ratio-cut FM passes
// (the Section 5 hybrid). The refined result is never worse than the pure
// spectral one.
func Refined(h *Netlist) (Result, error) {
	res, err := refine.IGMatchFM(h, core.Options{}, fm.Options{})
	if err != nil {
		return Result{}, err
	}
	return Result{Partition: res.Partition, Metrics: res.Refined}, nil
}

// Condensed runs the cluster-condensation pipeline: coarsen by heavy
// matching, IG-Match on the coarse circuit, project, FM-polish.
func Condensed(h *Netlist) (Result, error) {
	res, err := condense.Partition(h, condense.Options{})
	if err != nil {
		return Result{}, err
	}
	return Result{Partition: res.Partition, Metrics: res.Metrics}, nil
}

// Recorder is the pipeline observability hook: a hierarchical stage-span
// handle with counters plus a run-wide metrics registry. Pass a Recorder
// in IGMatchOptions.Rec to capture where an IG-Match run spends its time
// (intersection-graph build, Laplacian assembly, eigensolve cycles,
// sweep shards). A nil Recorder disables tracing at near-zero cost.
type Recorder = obs.Recorder

// Trace is the concrete Recorder: it records a stage tree with wall
// times and counters. Trace.String renders the per-stage timing tree,
// Trace.Finish returns the machine-readable report, and Trace.Metrics
// exposes the counters/gauges/timers registry.
type Trace = obs.Trace

// NewTrace returns a recording Trace whose root span bears the given
// name.
func NewTrace(name string) *Trace { return obs.NewTrace(name) }

// Stage is one node of the stage-span tree a Trace records: name, wall
// time, counters, and child stages. Trace.Finish returns the root Stage.
type Stage = obs.Stage

// MetricsRegistry is the run-wide counters/gauges/timers registry a
// Trace (and the service engine) records into.
type MetricsRegistry = obs.Registry

// FaultInjector is a deterministic, seeded fault-injection harness: it
// arms named points in the pipeline (eigen non-convergence, slow sweep
// shards, worker panics, …) with per-point firing rules. A nil injector
// is the production configuration — every point is disarmed at zero
// cost. See internal/fault for the point catalogue and rule semantics.
type FaultInjector = fault.Injector

// ParseFaultSpec parses a fault-injection spec string of the form
//
//	point[:p=X][:every=N][:limit=N][,point...]
//
// e.g. "eigen.noconverge:limit=1,sweep.slow-shard:p=0.25" — into an
// injector seeded with seed, recording fire counts into reg (which may
// be nil). An empty spec returns a nil injector: injection off.
func ParseFaultSpec(spec string, seed int64, reg *MetricsRegistry) (*FaultInjector, error) {
	return fault.Parse(spec, seed, reg)
}

// Sparsity compares the clique-model and intersection-graph representation
// sizes of h (stored off-diagonal nonzeros).
type Sparsity = netmodel.Sparsity

// CompareSparsity builds both net models of h and reports their sizes.
func CompareSparsity(h *Netlist) Sparsity { return netmodel.CompareSparsity(h) }

// MultiwayResult is a k-way partition with its quality metrics (spanning
// nets, connectivity, multiway ratio value).
type MultiwayResult = multiway.Result

// Multiway produces a k-way partition of h by recursive IG-Match
// bisection with no imbalance budget — the legacy behavior. Use KWay for
// the balanced (k, ε, fixed-module) contract.
func Multiway(h *Netlist, k int) (MultiwayResult, error) {
	return multiway.Partition(h, multiway.Options{K: k, Eps: multiway.Unbounded})
}

// EpsUnbounded disables the KWay imbalance budget: parts may be any size
// above one module.
var EpsUnbounded = multiway.Unbounded

// FixPin names one module pinned to a part for a k-way run; resolve a
// list of them against a netlist with hypergraph.FixFromPins.
type FixPin = hypergraph.FixPin

// KWayOptions configures KWay. The zero value demands perfect balance
// (ε = 0) with no fixed modules on the default IG-Match pipeline.
type KWayOptions struct {
	// Eps is the imbalance budget ε ≥ 0: every part holds at most
	// ⌈(1+ε)·n/k⌉ modules (multiway.PartCap). 0 — the default — demands
	// perfect balance; EpsUnbounded disables the budget.
	Eps float64
	// Fixed pins modules to parts: Fixed[v] ∈ [0,k) pins module v there,
	// −1 leaves it free; nil leaves every module free. Build one from a
	// named pin list with hypergraph.FixFromPins, or from an hMETIS .fix
	// file with hypergraph.LoadFix.
	Fixed []int
	// Spectral selects the direct spectral-k engine — Riolo–Newman
	// vector partitioning on the first k eigenvectors — instead of
	// recursive IG-Match bisection.
	Spectral bool
	// Candidates, when positive, makes each constrained bisection probe
	// that many evenly spaced splits (the scalable candidate sweep)
	// instead of sweeping its whole balance window.
	Candidates int
	// The pipeline knobs below mirror IGMatchOptions and apply to every
	// bisection (or to the spectral-k eigensolve).
	Scheme            WeightScheme
	Threshold         int
	Seed              int64
	BlockSize         int
	Parallelism       int
	Reorth            ReorthMode
	MatvecParallelism int
	Rec               Recorder
	Ctx               context.Context
	Fault             *FaultInjector
}

// KWay produces a balanced k-way module partition of h: exactly k
// non-empty parts, every part within the ε budget's per-part cap, every
// fixed module in its pinned part. With k=2, ε=EpsUnbounded, and no
// fixed modules the recursive engine reduces bit-for-bit to the IGMatch
// bisection.
func KWay(h *Netlist, k int, opts ...KWayOptions) (MultiwayResult, error) {
	var o KWayOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	return multiway.Partition(h, multiway.Options{
		K: k, Eps: o.Eps, Fixed: o.Fixed, Spectral: o.Spectral, Candidates: o.Candidates,
		Core: core.Options{
			IG: netmodel.IGOptions{Scheme: o.Scheme, Threshold: o.Threshold},
			Eigen: eigen.Options{
				Seed: o.Seed, BlockSize: o.BlockSize,
				ReorthMode: o.Reorth, MatvecWorkers: o.MatvecParallelism,
			},
			Parallelism: o.Parallelism,
			Rec:         o.Rec,
			Ctx:         o.Ctx,
			Fault:       o.Fault,
		},
	})
}

// EvaluateMultiway computes the multiway metrics for an arbitrary part
// assignment with parts 0..k−1.
func EvaluateMultiway(h *Netlist, part []int, k int) MultiwayResult {
	return multiway.Evaluate(h, part, k)
}

// Placement holds 1-D or 2-D coordinates for modules or nets.
type Placement = place.Placement

// PlaceHall1D computes Hall's one-dimensional quadratic placement of the
// modules (Appendix A of the paper) and returns it with λ₂, the optimal
// objective value.
func PlaceHall1D(h *Netlist) (Placement, float64, error) {
	return place.Hall1D(h)
}

// PlaceHall2D computes Hall's two-dimensional placement from eigenvectors
// 2 and 3 of the module Laplacian.
func PlaceHall2D(h *Netlist) (Placement, [2]float64, error) {
	return place.Hall2D(h)
}

// PlaceNetsAsPoints embeds the nets in 2-D via the intersection graph and
// drops each module at the centroid of its nets (the Pillage–Rohrer
// construction cited in Section 2.2).
func PlaceNetsAsPoints(h *Netlist) (nets, modules Placement, err error) {
	return place.NetsAsPoints2D(h)
}

// HPWL evaluates the half-perimeter wirelength of a module placement.
func HPWL(h *Netlist, p Placement) float64 { return place.HPWL(h, p) }

// LoadBookshelf reads a UCLA Bookshelf .nodes/.nets file pair.
func LoadBookshelf(nodesPath, netsPath string) (*Netlist, error) {
	return hypergraph.LoadBookshelf(nodesPath, netsPath)
}

// ReadBookshelf parses a UCLA Bookshelf .nodes/.nets stream pair, e.g.
// an in-memory payload received by cmd/igpartd.
func ReadBookshelf(nodes, nets io.Reader) (*Netlist, error) {
	return hypergraph.ReadBookshelf(nodes, nets)
}

// WriteBookshelf serializes a netlist as a UCLA Bookshelf .nodes/.nets
// stream pair, the inverse of ReadBookshelf.
func WriteBookshelf(nodes, nets io.Writer, h *Netlist) error {
	return hypergraph.WriteBookshelf(nodes, nets, h)
}

// SaveBookshelf writes a UCLA Bookshelf .nodes/.nets file pair.
func SaveBookshelf(nodesPath, netsPath string, h *Netlist) error {
	return hypergraph.SaveBookshelf(nodesPath, netsPath, h)
}
