// Package core implements IG-Match, the paper's contribution: spectral
// ratio-cut partitioning of a netlist via the intersection graph of its
// hypergraph.
//
// The pipeline is exactly the one of Sections 2–3:
//
//  1. Build the intersection graph G' of the netlist (one vertex per net)
//     with the Section 2.2 edge weighting, and its Laplacian Q' = D' − A'.
//  2. Compute the second-smallest eigenpair of Q' (Lanczos); sorting the
//     eigenvector yields a linear ordering of the nets.
//  3. Sweep every split of the net ordering. For each split (L, R), the
//     conflict bipartite graph B(L, R, E_B) is maintained incrementally
//     along with a maximum matching (package bipartite). Phase I extracts
//     the winner nets — a maximum independent set in B — via the Even/Odd
//     alternating-path construction; Phase II assigns the leftover modules
//     in bulk to whichever side gives the better ratio cut.
//  4. Return the best module partition over all splits.
//
// One walker serves every sweep: the full sweep hands it each rank of the
// ordering (of a balance budget's rank window, when one is set), the
// candidate sweep of scalable.go a spaced subset, and PartitionRanksWithOrder
// a caller's ascending rank list (a warm start's window and spaced
// ranks). A rank that follows the previous one advances the matching by
// one move, and a rank a short gap ahead by one move per net in the gap;
// a shard's first rank, and a rank after a gap longer than m/10, is
// bootstrapped from scratch. Both reach the same split, because the
// Even/Odd classes are canonical over maximum matchings.
//
// Theorems 4–5 guarantee each completion cuts at most |maximum matching(B)|
// nets. Theorem 6 bounds the matching maintenance over the whole sweep by
// O(m·(m+e)) for m nets. Both per-split kernels are output-sensitive on
// top of it: the Even/Odd search reads only the matched nets' adjacency,
// and Phase II keeps per-net pin counts across splits, re-deriving only
// the nets whose winner class can change — the moved net and the nets
// matched at either split. A split therefore costs in proportion to
// |MM(B)| and to what changed at it, not to the size of the netlist.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"igpart/internal/bipartite"
	"igpart/internal/eigen"
	"igpart/internal/fault"
	"igpart/internal/hypergraph"
	"igpart/internal/netmodel"
	"igpart/internal/obs"
	"igpart/internal/par"
	"igpart/internal/partition"
	"igpart/internal/sparse"
)

// Options configures an IG-Match run. The zero value reproduces the paper's
// configuration.
type Options struct {
	// IG configures intersection-graph construction for the eigensolve
	// (weight scheme, optional thresholding). The conflict graph used for
	// matching always reflects true module sharing regardless of
	// thresholding, so completions stay correct.
	IG netmodel.IGOptions
	// Eigen tunes the Lanczos solver. Its Rec, Ctx and Fault are set
	// from the eigensolve span and from Ctx and Fault below.
	Eigen eigen.Options
	// RecursionDepth, when positive, enables the recursive extension
	// sketched in Section 3: at the best split, the unassigned modules of
	// the residual core are partitioned by a recursive IG-Match call
	// instead of only being bulk-assigned, and the better completion wins.
	// The value bounds the recursion depth.
	RecursionDepth int
	// Trace, when non-nil, receives one record per swept split, in
	// ascending rank order: every rank of the sweep window, every probed
	// candidate rank, or every rank of a caller's list.
	Trace *[]SplitRecord
	// Parallelism bounds the number of concurrent sweep shards: the swept
	// ranks are cut into that many contiguous pieces, each walked by its
	// own incrementally-maintained matcher bootstrapped from scratch
	// (Hopcroft–Karp) at the shard boundary. 0 uses GOMAXPROCS; 1 forces
	// the serial engine. The result is bit-identical for every value: the
	// shard reduction breaks metric ties by lowest rank, exactly the order
	// the serial sweep encounters splits in.
	Parallelism int
	// Rec, when non-nil, receives hierarchical stage spans (IG build,
	// Laplacian assembly, eigensolve cycles, sweep shards) with wall
	// times and counters, plus run-level metrics. Tracing never changes
	// the result; nil means off and costs nothing on the hot path.
	Rec obs.Recorder
	// Ctx, when non-nil, enables cooperative cancellation: every sweep
	// shard polls it at split granularity and the eigensolver inherits it
	// (polled per Lanczos cycle and every few Krylov steps), so a
	// cancelled run returns promptly with an error wrapping ctx.Err(). A
	// nil or background context changes nothing — results stay
	// bit-identical.
	Ctx context.Context
	// Fault, when non-nil, arms deterministic fault-injection points in
	// the run (eigen.noconverge before each iterative eigensolve,
	// sweep.slow-shard at each shard's start). nil — the production
	// default — disarms every point at zero cost; injection with a fixed
	// seed is reproducible across runs.
	Fault *fault.Injector
	// Balance, when non-nil, restricts accepted completions to those
	// whose U side holds between MinU and MaxU modules; the sweep is
	// pruned to the rank window that can plausibly reach it, and splits
	// whose completions all fall outside count as infeasible. nil — the
	// production default — imposes nothing and keeps the sweep
	// bit-identical to the paper engine. See constrained.go.
	Balance *Balance
	// FixedSides, when non-nil, pins modules before the sweep:
	// FixedSides[v] = 0 pins module v to side U, 1 pins it to side W,
	// and −1 leaves it free. A pinned module pre-assigns its nets'
	// sides in every König completion and is never reassigned by
	// Phase II. nil leaves every module free, bit-identical to the
	// unpinned engine. Incompatible with RecursionDepth, which is
	// ignored while constraints are active.
	FixedSides []int8
}

// ctxErr polls an optional context: nil contexts never cancel.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// SplitRecord captures the state of one sweep split for analysis. Splits
// where no proper completion exists (every option left a side empty) are
// recorded with CutNets = −1 and RatioCut = +Inf.
type SplitRecord struct {
	Rank         int     // nets moved to R so far (1..m−1)
	MatchingSize int     // |MM(B)| — upper bound on the completed cut
	CutNets      int     // cut of the better completion at this split
	RatioCut     float64 // ratio cut of the better completion
}

// Result is the outcome of an IG-Match run.
type Result struct {
	// Partition is the best module bipartition found.
	Partition *partition.Bipartition
	// Metrics evaluates Partition on the input netlist.
	Metrics partition.Metrics
	// NetOrder is the eigenvector-sorted net ordering driving the sweep.
	NetOrder []int
	// Lambda2 is the second-smallest eigenvalue of Q'(G').
	Lambda2 float64
	// BestRank is the number of nets on the R side at the winning split.
	BestRank int
	// BestMatching is |MM(B)| at the winning split; by Theorem 5 the
	// completed partition cuts at most this many nets.
	BestMatching int
	// Recursed reports whether the recursive completion improved on the
	// bulk Phase II assignment at the winning split.
	Recursed bool
}

// ErrNoProperCompletion reports that every swept split's completion
// left one side empty, so the run found no bipartition at all. It
// depends only on the netlist and the options: the same request fails
// the same way every time.
var ErrNoProperCompletion = errors.New("core: no proper completion found")

// Partition runs IG-Match on the netlist h.
func Partition(h *hypergraph.Hypergraph, opts Options) (Result, error) {
	return fiedlerSweep(h, 0, opts)
}

// fiedlerSweep runs the whole pipeline behind Partition and
// PartitionCandidates: the Fiedler order of h, swept in full (budget 0)
// or at budget evenly spaced candidate ranks.
func fiedlerSweep(h *hypergraph.Hypergraph, budget int, opts Options) (Result, error) {
	if h.NumNets() < 2 {
		return Result{}, errors.New("core: IG-Match needs at least 2 nets")
	}
	if h.NumModules() < 2 {
		return Result{}, errors.New("core: IG-Match needs at least 2 modules")
	}
	order, lambda2, err := fiedlerOrder(h, opts)
	if err != nil {
		return Result{}, err
	}
	res, err := sweep(h, order, budget, nil, opts)
	if err != nil {
		return Result{}, err
	}
	res.Lambda2 = lambda2
	return res, nil
}

// fiedlerOrder runs pipeline steps 1–2: build the intersection graph and
// its Laplacian, solve for the Fiedler pair, and sort the nets by
// eigenvector component. Each stage gets its own span; the eigensolve
// span doubles as the recorder for the solver's per-cycle detail.
func fiedlerOrder(h *hypergraph.Hypergraph, opts Options) ([]int, float64, error) {
	rec := obs.OrNop(opts.Rec)
	sp := rec.StartSpan("ig-build")
	g := netmodel.IntersectionGraph(h, opts.IG)
	sp.Count("nets", int64(h.NumNets()))
	sp.Count("ig-edges", int64(g.OffDiagNNZ()/2))
	sp.End()

	sp = rec.StartSpan("laplacian")
	q := sparse.Laplacian(g)
	sp.End()

	esp := rec.StartSpan("eigensolve")
	eo := opts.Eigen
	eo.Rec, eo.Ctx, eo.Fault = esp, opts.Ctx, opts.Fault
	fied, err := eigen.Fiedler(q, eo)
	esp.End()
	if err != nil {
		return nil, 0, fmt.Errorf("core: eigensolve failed: %w", err)
	}
	rec.Metrics().Gauge("eigen.lambda2").Set(fied.Lambda2)
	return SortNetsByVector(fied.Vector), fied.Lambda2, nil
}

// PartitionWithOrder runs the IG-Match sweep over an externally supplied
// net ordering (a permutation of 0..NumNets−1). It exposes the completion
// machinery independently of the eigensolve, which the tests and the
// recursive extension rely on.
func PartitionWithOrder(h *hypergraph.Hypergraph, order []int, opts Options) (Result, error) {
	return sweep(h, order, 0, nil, opts)
}

// PartitionRanksWithOrder sweeps only the listed ranks of an externally
// supplied net ordering; they must be non-empty, strictly ascending and
// inside [1, m−1] for m nets. Each traced record equals the full sweep's
// at its rank and metric ties go to the lowest rank, so a list holding
// the full sweep's winner reproduces PartitionWithOrder's result. A
// Balance budget drops the listed ranks outside its rank window.
func PartitionRanksWithOrder(h *hypergraph.Hypergraph, order []int, ranks []int, opts Options) (Result, error) {
	if len(ranks) == 0 {
		return Result{}, errors.New("core: empty rank list")
	}
	m := h.NumNets()
	for i, r := range ranks {
		if r < 1 || r > m-1 {
			return Result{}, fmt.Errorf("core: rank %d outside [1,%d]", r, m-1)
		}
		if i > 0 && r <= ranks[i-1] {
			return Result{}, fmt.Errorf("core: ranks %d, %d not strictly ascending", ranks[i-1], r)
		}
	}
	return sweep(h, order, 0, ranks, opts)
}

// SortNetsByVector returns net indices sorted by ascending eigenvector
// component, with index order breaking ties deterministically.
func SortNetsByVector(x []float64) []int {
	order := make([]int, len(x))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return x[order[a]] < x[order[b]] })
	return order
}

// IGAdjacency builds unweighted intersection-graph adjacency lists: nets a
// and b are adjacent iff they share at least one module. This is the host
// graph for the conflict bipartite graph B.
//
// The lists share one backing array sized by an exact counting pass, so
// building costs two pin-bucket sweeps but a single allocation — at 10⁵+
// nets the per-row append growth it replaces dominated peak memory.
func IGAdjacency(h *hypergraph.Hypergraph) [][]int {
	m := h.NumNets()
	adj := make([][]int, m)
	stamp := make([]int, m)
	for i := range stamp {
		stamp[i] = -1
	}
	counts := make([]int, m+1)
	for a := 0; a < m; a++ {
		for _, v := range h.Pins(a) {
			for _, b := range h.Nets(v) {
				if b == a || stamp[b] == a {
					continue
				}
				stamp[b] = a
				counts[a+1]++
			}
		}
	}
	for a := 0; a < m; a++ {
		counts[a+1] += counts[a]
	}
	backing := make([]int, counts[m])
	for i := range stamp {
		stamp[i] = -1
	}
	for a := 0; a < m; a++ {
		row := backing[counts[a]:counts[a]:counts[a+1]]
		for _, v := range h.Pins(a) {
			for _, b := range h.Nets(v) {
				if b == a || stamp[b] == a {
					continue
				}
				stamp[b] = a
				row = append(row, b)
			}
		}
		adj[a] = row
	}
	return adj
}

// sweep runs the IG-Match main loop over the given net order. The sweep
// window is every rank, or the rank window a Balance budget leaves; a
// positive budget visits that many evenly spaced ranks of it (the
// candidate sweep), a non-nil list the listed ranks inside it, and
// otherwise every rank of it (the full sweep). The visited ranks are cut
// into contiguous shards, each walked by sweepShard behind
// the recover barrier of parallel.go, and the shard winners are reduced
// once. Each shard builds its completer state once at its first split
// and then carries it from split to split (see completer), so both
// Phase II bulk options are read in O(1) per split, and a concrete
// partition is only materialized when the split improves on the shard's
// best so far.
func sweep(h *hypergraph.Hypergraph, order []int, budget int, list []int, opts Options) (Result, error) {
	m := h.NumNets()
	if len(order) != m {
		return Result{}, fmt.Errorf("core: order has %d entries, want %d", len(order), m)
	}
	cons, err := newConstraints(opts, h.NumModules())
	if err != nil {
		return Result{}, err
	}
	rec := obs.OrNop(opts.Rec)
	sp := rec.StartSpan("conflict-adjacency")
	adj := IGAdjacency(h)
	sp.End()
	nSplits := max(m-1, 0) // an empty order has no split

	// A balance budget prunes the sweep to the rank window that can
	// plausibly reach it; unconstrained runs sweep every rank as before.
	loRank, hiRank := 1, nSplits
	if cons != nil {
		loRank, hiRank = balanceRankWindow(cons.bal, h.NumModules(), nSplits)
	}

	// The candidate sweep keeps its own span name and error wording.
	spanName, shardName, sweepName, splitName := "sweep", "sweep shard", "sweep", "split"
	var ranks []int
	switch {
	case budget > 0:
		spanName, shardName, sweepName, splitName = "candidate-sweep", "candidate shard", "candidate sweep", "candidate split"
		ranks = candidateRanksWindow(budget, loRank, hiRank)
	case list != nil:
		// The list ascends, so the ranks inside the window are a run of it.
		lo, _ := slices.BinarySearch(list, loRank)
		hi, _ := slices.BinarySearch(list, hiRank+1)
		ranks = list[lo:hi]
	default:
		ranks = make([]int, 0, hiRank-loRank+1)
		for rank := loRank; rank <= hiRank; rank++ {
			ranks = append(ranks, rank)
		}
	}

	// Pre-sized trace of the walked ranks, indexed like ranks so parallel
	// workers write their shard's slots without locks; appended to
	// opts.Trace at the end, which keeps the serial append semantics
	// bit-identical.
	var trace []SplitRecord
	if opts.Trace != nil {
		trace = make([]SplitRecord, len(ranks))
	}

	// Shards take contiguous pieces of the rank list; an order of fewer
	// than two nets has no rank and runs no shard, and one shard stays on
	// the calling goroutine. Each shard records under its own child span,
	// opened before the workers launch so the stage tree lists shards in
	// ascending rank order regardless of scheduling.
	sw := rec.StartSpan(spanName)
	p := min(par.Workers(opts.Parallelism, len(ranks)), len(ranks))
	bounds := par.Bounds(p, len(ranks))
	spans := make([]obs.Recorder, p)
	for i := range p {
		spans[i] = shardSpan(sw, ranks[bounds[i][0]], ranks[bounds[i][1]-1]+1)
	}
	shards := make([]shardBest, p)
	par.Run(p, func(i int) {
		lo, hi := bounds[i][0], bounds[i][1]
		var shardTrace []SplitRecord
		if trace != nil {
			shardTrace = trace[lo:hi]
		}
		shards[i] = safeSweepShard(opts.Ctx, h, adj, order, ranks[lo:hi], shardTrace, spans[i], opts.Fault, cons)
	})

	// Deterministic reduction: shards cover ascending rank ranges, and a
	// later shard only displaces the incumbent on a strict metric
	// improvement — so metric ties resolve to the lowest rank, exactly the
	// split the serial sweep would have kept.
	best := Result{NetOrder: order}
	bestCost := partition.Metrics{RatioCut: inf()}
	haveBest := false
	for _, sb := range shards {
		if sb.err != nil {
			sw.End()
			if _, ok := fault.AsPanic(sb.err); ok {
				return Result{}, fmt.Errorf("core: %s panicked: %w", shardName, sb.err)
			}
			return Result{}, fmt.Errorf("core: %s cancelled: %w", sweepName, sb.err)
		}
		if sb.have && better(sb.met, bestCost) {
			bestCost = sb.met
			best.Partition = sb.part
			best.Metrics = sb.met
			best.BestRank = sb.rank
			best.BestMatching = sb.matching
			haveBest = true
		}
	}
	if budget > 0 {
		sw.Count("candidates", int64(len(ranks)))
	}
	sw.Count("shards", int64(p))
	sw.End()
	if opts.Trace != nil {
		*opts.Trace = append(*opts.Trace, trace...)
	}
	if !haveBest {
		if cons != nil {
			return Result{}, ErrNoFeasibleCompletion
		}
		return Result{}, fmt.Errorf("%w (every %s left one side empty)", ErrNoProperCompletion, splitName)
	}
	reg := rec.Metrics()
	if budget > 0 {
		reg.Counter("sweep.candidates").Add(int64(len(ranks)))
	}
	reg.Gauge("sweep.best_rank").Set(float64(best.BestRank))
	reg.Gauge("sweep.best_ratio").Set(best.Metrics.RatioCut)

	// The recursive extension's completion machinery is pin- and
	// balance-oblivious, so it only augments unconstrained runs.
	if opts.RecursionDepth > 0 && cons == nil {
		if p2, met2, ok := completeRecursive(h, winnersAt(adj, order, best.BestRank), opts); ok && better(met2, best.Metrics) {
			best.Partition = p2
			best.Metrics = met2
			best.Recursed = true
		}
	}
	return best, nil
}

// shardBest is one shard's winning split, ready for the cross-shard
// reduction. err is non-nil only when the shard was cancelled mid-sweep,
// in which case the whole sweep result is discarded.
type shardBest struct {
	have     bool
	met      partition.Metrics
	part     *partition.Bipartition
	rank     int
	matching int
	err      error
}

// winnersAt classifies the split that moves the first rank nets of order
// to R, from a fresh Hopcroft–Karp matching. The classification is
// canonical over maximum matchings, so it equals the sweep's at that rank;
// only the recursive extension needs it, once per run.
func winnersAt(adj [][]int, order []int, rank int) bipartite.Sets {
	inR := make([]bool, len(adj))
	for _, e := range order[:rank] {
		inR[e] = true
	}
	return bipartite.NewMatcherAt(adj, inR).Winners()
}

// walkRatio bounds the gap a shard walks between two of its ranks: a
// rank at most m/walkRatio past the previous one (m nets) is reached by
// moving the nets in between, a farther one is bootstrapped. Walking
// costs one augmentation search per moved net and bootstrapping a
// Hopcroft–Karp matching plus an O(pins) completer build. On a 2-vCPU
// Xeon VM walking lost beyond a gap of about m/5 at 3k–10k nets and
// about m/9 at 100k nets, so m/10 keeps every walk the cheaper of the
// two, and a budget of 11 or more candidates over a whole ordering walks
// its gaps.
const walkRatio = 10

// sweepShard walks the ascending ranks of one shard with an incremental
// matcher and completer. The next rank, or a candidate at most
// m/walkRatio ranks past the previous one, is reached by walking:
// MoveToR on every net in the gap, one Classify, and one completer
// advance over the moved nets. The shard's first rank, and a rank after
// a longer gap, bootstraps instead: it extends the inR prefix up to the
// rank and seeds a fresh matcher there with a from-scratch Hopcroft–Karp
// matching (bipartite.NewMatcherAt) and a fresh completer build; the
// prefix only marches forward, so a shard fills it in O(m) total.
// Because the Even/Odd/Core classification is canonical over maximum
// matchings (Dulmage–Mendelsohn), both reach the per-split state the
// serial sweep has at that rank, so per-split trace records and the
// shard-local best are identical to the serial engine's view of the same
// ranks. When trace is non-nil it holds the shard's own slots, and the
// shard writes ranks[i]'s record at trace[i].
//
// sp is the shard's stage span. Per-split tallies stay in local integers
// regardless of tracing and are flushed to the span (and the run-wide
// registry) once at shard exit, so the traced and untraced loops execute
// the same per-split instructions. Augmentations are summed over the
// shard's matchers.
func sweepShard(ctx context.Context, h *hypergraph.Hypergraph, adj [][]int, order []int, ranks []int, trace []SplitRecord, sp obs.Recorder, cons *constraints) shardBest {
	var matcher *bipartite.Matcher
	comp := newCompleter(h, cons)
	inR := make([]bool, len(adj))
	prefix, prev := 0, 0 // nets of order marked in inR; the last rank walked

	var sb shardBest
	bestCost := partition.Metrics{RatioCut: inf()}
	var winners, improved, infeasible, scanned, reclassified, augmentations, bootstraps int64
	for i, rank := range ranks {
		// Cooperative cancellation at split granularity: a split costs
		// work in proportion to the matched nets and the nets and modules
		// that change class, so one context poll per split is negligible
		// and keeps cancellation latency to a single split.
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				sb.err = err
				break
			}
		}
		walk := matcher != nil && (rank == prev+1 || walkRatio*(rank-prev) <= len(order))
		if !walk {
			if matcher != nil {
				augmentations += int64(matcher.Augmentations())
			}
			bootstraps++
			for ; prefix < rank-1; prefix++ {
				inR[order[prefix]] = true
			}
			matcher, prev = bipartite.NewMatcherAt(adj, inR), rank-1
		}
		moved := order[prev:rank]
		for _, e := range moved {
			matcher.MoveToR(e)
		}
		scanned += int64(matcher.Classify())
		if walk {
			reclassified += int64(comp.advance(matcher, moved))
		} else {
			comp.build(matcher)
		}
		prev = rank
		winners += int64(comp.winners)
		met, vnSide, ok := comp.score()
		if trace != nil {
			rec := SplitRecord{
				Rank:         rank,
				MatchingSize: matcher.MatchingSize(),
				CutNets:      met.CutNets,
				RatioCut:     met.RatioCut,
			}
			if !ok {
				rec.CutNets = -1
				rec.RatioCut = math.Inf(1)
			}
			trace[i] = rec
		}
		if !ok {
			infeasible++
			continue
		}
		if better(met, bestCost) {
			bestCost = met
			improved++
			sb.have = true
			sb.met = met
			sb.part = comp.materializeBest(vnSide)
			sb.rank = rank
			sb.matching = matcher.MatchingSize()
		}
	}
	if matcher != nil {
		augmentations += int64(matcher.Augmentations())
	}
	splits := int64(len(ranks))
	sp.Count("splits", splits)
	sp.Count("bootstraps", bootstraps)
	sp.Count("phase1-winners", winners)
	sp.Count("phase1-scanned", scanned)
	sp.Count("reclassified", reclassified)
	sp.Count("phase2-evals", splits-infeasible)
	sp.Count("infeasible", infeasible)
	sp.Count("improved", improved)
	sp.Count("augmentations", augmentations)
	reg := sp.Metrics()
	reg.Counter("sweep.splits").Add(splits)
	reg.Counter("sweep.bootstraps").Add(bootstraps)
	reg.Counter("sweep.augmentations").Add(augmentations)
	reg.Counter("sweep.phase1_winners").Add(winners)
	reg.Counter("sweep.phase1_scanned").Add(scanned)
	reg.Counter("sweep.reclassified").Add(reclassified)
	sp.End()
	return sb
}

// completer keeps the Phase II state of one split and carries it to the
// next: each net's winner class, each module's count of winner nets per
// side, the module coloring, each net's count of U and W pins, and the
// cut counts of both bulk options. A shard start or a rank after a long
// gap builds it in one O(pins) pass (build); between two walked splits
// only the moved nets and the nets matched at the previous or the
// current split can change winner class, so advance re-derives only
// those, and only modules whose color changes touch the per-net counts —
// KaHyPar's incrementally kept per-block pin counts Φ(e, V_i) applied to
// the König completion. evaluate then reads both bulk options in O(1).
type completer struct {
	h *hypergraph.Hypergraph
	// win holds each net's winner class: 0 = not a winner, 1 = Even(L)
	// (colors its modules U), 2 = Even(R) (colors them W).
	win []uint8
	// onU and onW count, per module, the Even(L) and Even(R) nets it is on.
	onU, onW []int32
	// col holds the winner coloring: 0 = unassigned (V_N), 1 = V_L
	// (side U), 2 = V_R (side W). A free module on any Even(R) net is W,
	// otherwise U if it is on any Even(L) net. Pinned modules keep their
	// permanent color.
	col []uint8
	// pinU and pinW count, per net, the pins colored U and W.
	pinU, pinW     []int32
	nU, nW         int // free modules colored U and W
	winners        int // nets with a winner class, |Even(L)| + |Even(R)|
	cutToU, cutToW int // nets cut when V_N joins U, and when it joins W

	prev    []int    // nets matched at the previous split
	netSeen []uint32 // advance's per-net visit stamps
	modSeen []uint32 // advance's per-module visit stamps
	round   uint32
	touched []int // modules whose winner counts changed in this advance

	// Constrained-engine state; nil/unused on the paper path.
	cons     *constraints
	fixedCol []uint8        // alias of cons.fixed, nil when unpinned
	affU     []int32        // per-V_N-module affinity to the colored U side
	affW     []int32        // ... and to the colored W side
	vn       []int          // V_N modules of the current split
	vnPos    []int32        // module → position in the affinity-sorted V_N order
	balX     int            // balanced completion: V_N prefix sent to U; −1 = bulk
	balSide  partition.Side // bulk side when balX < 0
}

func newCompleter(h *hypergraph.Hypergraph, cons *constraints) *completer {
	n, m := h.NumModules(), h.NumNets()
	c := &completer{
		h:       h,
		win:     make([]uint8, m),
		onU:     make([]int32, n),
		onW:     make([]int32, n),
		col:     make([]uint8, n),
		pinU:    make([]int32, m),
		pinW:    make([]int32, m),
		netSeen: make([]uint32, m),
		modSeen: make([]uint32, n),
	}
	if cons != nil {
		c.cons = cons
		c.affU = make([]int32, n)
		c.affW = make([]int32, n)
		c.vn = make([]int, 0, n)
		c.vnPos = make([]int32, n)
		c.fixedCol = cons.fixed
	}
	return c
}

// winClass maps a net's Phase I class to its winner class.
func winClass(m *bipartite.Matcher, e int) uint8 {
	switch m.Class(e) {
	case bipartite.EvenL:
		return 1
	case bipartite.EvenR:
		return 2
	}
	return 0
}

// colorOf derives module v's color from its winner-net counts.
func (c *completer) colorOf(v int) uint8 {
	switch {
	case c.fixedCol != nil && c.fixedCol[v] != 0:
		return c.fixedCol[v]
	case c.onW[v] > 0:
		return 2
	case c.onU[v] > 0:
		return 1
	}
	return 0
}

// cutBy reports whether a net of size k with u pins colored U and w pins
// colored W is cut when V_N joins U (toU) and when it joins W (toW).
// Single-pin nets are never cut.
func cutBy(k, u, w int32) (toU, toW int) {
	if w > 0 && w < k {
		toU = 1
	}
	if u > 0 && u < k {
		toW = 1
	}
	return toU, toW
}

// build derives the whole completer state from the matcher's last
// Classify in one pass over the winner nets' pins and one over all pins.
func (c *completer) build(m *bipartite.Matcher) {
	h := c.h
	for v := range c.onU {
		c.onU[v], c.onW[v] = 0, 0
	}
	c.winners = 0
	for e := range c.win {
		w := winClass(m, e)
		c.win[e] = w
		if w == 0 {
			continue
		}
		c.winners++
		for _, v := range h.Pins(e) {
			if w == 1 {
				c.onU[v]++
			} else {
				c.onW[v]++
			}
		}
	}
	c.nU, c.nW = 0, 0
	for v := range c.col {
		col := c.colorOf(v)
		c.col[v] = col
		if c.fixedCol != nil && c.fixedCol[v] != 0 {
			continue
		}
		switch col {
		case 1:
			c.nU++
		case 2:
			c.nW++
		}
	}
	c.cutToU, c.cutToW = 0, 0
	for e := range c.pinU {
		pins := h.Pins(e)
		var u, w int32
		for _, v := range pins {
			switch c.col[v] {
			case 1:
				u++
			case 2:
				w++
			}
		}
		c.pinU[e], c.pinW[e] = u, w
		toU, toW := cutBy(int32(len(pins)), u, w)
		c.cutToU += toU
		c.cutToW += toW
	}
	c.prev = append(c.prev[:0], m.Matched()...)
}

// advance carries the state from the previous split to the matcher's
// current one, after the moves of the nets in moved and a fresh Classify.
// Only the moved nets and the nets matched at the previous or the current
// split can change winner class: every other net stayed on its side and
// is unmatched at both splits, and an unmatched net is always a winner on
// its own side. It returns the number of nets whose winner class changed.
func (c *completer) advance(m *bipartite.Matcher, moved []int) (reclassified int) {
	c.round++
	if c.round == 0 { // stamp wrap-around: clear the stale stamps once
		clear(c.netSeen)
		clear(c.modSeen)
		c.round = 1
	}
	c.touched = c.touched[:0]
	for _, e := range moved {
		reclassified += c.reclassify(m, e)
	}
	for _, e := range c.prev {
		reclassified += c.reclassify(m, e)
	}
	for _, e := range m.Matched() {
		reclassified += c.reclassify(m, e)
	}
	for _, v := range c.touched {
		c.recolor(v)
	}
	c.prev = append(c.prev[:0], m.Matched()...)
	return reclassified
}

// reclassify re-derives net e's winner class once per advance and, when it
// changed, moves e's pins between the winner-net counts. It returns 1 for
// a changed class.
func (c *completer) reclassify(m *bipartite.Matcher, e int) int {
	if c.netSeen[e] == c.round {
		return 0
	}
	c.netSeen[e] = c.round
	old, w := c.win[e], winClass(m, e)
	if w == old {
		return 0
	}
	c.win[e] = w
	switch {
	case old == 0:
		c.winners++
	case w == 0:
		c.winners--
	}
	for _, v := range c.h.Pins(e) {
		switch old {
		case 1:
			c.onU[v]--
		case 2:
			c.onW[v]--
		}
		switch w {
		case 1:
			c.onU[v]++
		case 2:
			c.onW[v]++
		}
		if c.modSeen[v] != c.round {
			c.modSeen[v] = c.round
			c.touched = append(c.touched, v)
		}
	}
	return 1
}

// recolor applies module v's color derived from its current winner-net
// counts, updating the pin counts and cut counts of its nets when the
// color changed. Pinned modules never change color.
func (c *completer) recolor(v int) {
	old, col := c.col[v], c.colorOf(v)
	if old == col {
		return
	}
	c.col[v] = col
	switch old {
	case 1:
		c.nU--
	case 2:
		c.nW--
	}
	switch col {
	case 1:
		c.nU++
	case 2:
		c.nW++
	}
	for _, e := range c.h.Nets(v) {
		k := int32(c.h.NetSize(e))
		u, w := c.pinU[e], c.pinW[e]
		oldU, oldW := cutBy(k, u, w)
		switch old {
		case 1:
			u--
		case 2:
			w--
		}
		switch col {
		case 1:
			u++
		case 2:
			w++
		}
		c.pinU[e], c.pinW[e] = u, w
		toU, toW := cutBy(k, u, w)
		c.cutToU += toU - oldU
		c.cutToW += toW - oldW
	}
}

// score evaluates the current split on the unconstrained or the
// constrained path: the completion's metrics, the side V_N joins in a
// bulk completion, and whether any completion is feasible.
func (c *completer) score() (partition.Metrics, partition.Side, bool) {
	if c.cons == nil {
		return c.evaluate()
	}
	met, ok := c.evaluateConstrained()
	return met, c.balSide, ok
}

// materializeBest dispatches between the unconstrained and constrained
// materializations for the completion chosen by the last score call.
func (c *completer) materializeBest(vnSide partition.Side) *partition.Bipartition {
	if c.cons == nil {
		return c.materialize(vnSide)
	}
	return c.materializeConstrained()
}

// evaluate scores both bulk placements of the unassigned modules from the
// kept counts in O(1), returning the better option's metrics and which
// side V_N goes to. ok is false when both options leave a side empty.
func (c *completer) evaluate() (partition.Metrics, partition.Side, bool) {
	nU, nW := c.nU, c.nW
	nN := c.h.NumModules() - nU - nW
	cutToU, cutToW := c.cutToU, c.cutToW

	metU := partition.Metrics{ // V_N joins U
		CutNets: cutToU, SizeU: nU + nN, SizeW: nW,
		RatioCut: partition.RatioCutFrom(cutToU, nU+nN, nW),
	}
	metW := partition.Metrics{ // V_N joins W
		CutNets: cutToW, SizeU: nU, SizeW: nW + nN,
		RatioCut: partition.RatioCutFrom(cutToW, nU, nW+nN),
	}
	okU := metU.SizeU > 0 && metU.SizeW > 0
	okW := metW.SizeU > 0 && metW.SizeW > 0
	switch {
	case okU && (!okW || !better(metW, metU)): // ties go to the U option
		return metU, sideU, true
	case okW:
		return metW, sideW, true
	default:
		return partition.Metrics{}, sideU, false
	}
}

// materialize builds the partition for the current coloring with V_N on
// the given side. Must be called before the next evaluate.
func (c *completer) materialize(vnSide partition.Side) *partition.Bipartition {
	sides := make([]partition.Side, c.h.NumModules())
	for v := range sides {
		switch c.col[v] {
		case 1:
			sides[v] = sideU
		case 2:
			sides[v] = sideW
		default:
			sides[v] = vnSide
		}
	}
	return partition.FromSides(sides)
}

func inf() float64 { return math.Inf(1) }

// better orders candidate completions: primarily by ratio cut, then by
// fewer cut nets, making the sweep deterministic.
func better(a, b partition.Metrics) bool {
	if a.RatioCut != b.RatioCut {
		return a.RatioCut < b.RatioCut
	}
	return a.CutNets < b.CutNets
}

const (
	sideU partition.Side = partition.U
	sideW partition.Side = partition.W
)

// assignWinners colors modules by the winner nets: V_L ← modules of Even(L)
// nets (side U), V_R ← modules of Even(R) nets (side W). It returns the
// list of unassigned (V_N) modules. The two winner module sets are disjoint
// when the matching is maximum, which the Matcher guarantees.
func assignWinners(h *hypergraph.Hypergraph, sets bipartite.Sets, sides []partition.Side, assigned []bool) (vn []int) {
	for i := range assigned {
		assigned[i] = false
	}
	for _, e := range sets.EvenL {
		for _, v := range h.Pins(e) {
			sides[v] = sideU
			assigned[v] = true
		}
	}
	for _, e := range sets.EvenR {
		for _, v := range h.Pins(e) {
			sides[v] = sideW
			assigned[v] = true
		}
	}
	for v := range assigned {
		if !assigned[v] {
			vn = append(vn, v)
		}
	}
	return vn
}

// completeBulk performs Phase II: both bulk placements of the unassigned
// modules are evaluated and the better one returned. ok is false when both
// options leave a side empty (no proper bipartition exists at this split).
func completeBulk(h *hypergraph.Hypergraph, sets bipartite.Sets, sides []partition.Side) (partition.Metrics, *partition.Bipartition, bool) {
	assigned := make([]bool, h.NumModules())
	vn := assignWinners(h, sets, sides, assigned)

	bestMet := partition.Metrics{RatioCut: inf()}
	var bestSides []partition.Side
	for _, opt := range []partition.Side{sideU, sideW} {
		for _, v := range vn {
			sides[v] = opt
		}
		p := partition.FromSides(sides)
		met := partition.Evaluate(h, p)
		if met.SizeU == 0 || met.SizeW == 0 {
			continue
		}
		if better(met, bestMet) {
			bestMet = met
			bestSides = append(bestSides[:0], sides...)
		}
	}
	if bestSides == nil {
		return partition.Metrics{}, nil, false
	}
	return bestMet, partition.FromSides(bestSides), true
}

// completeRecursive implements the recursive extension: the unassigned
// modules are partitioned by a recursive IG-Match call on their induced
// sub-hypergraph, and the two orientations of that sub-partition are
// evaluated against the winner assignment.
func completeRecursive(h *hypergraph.Hypergraph, sets bipartite.Sets, opts Options) (*partition.Bipartition, partition.Metrics, bool) {
	sides := make([]partition.Side, h.NumModules())
	assigned := make([]bool, h.NumModules())
	vn := assignWinners(h, sets, sides, assigned)
	if len(vn) < 2 {
		return nil, partition.Metrics{}, false
	}
	keep := make([]bool, h.NumModules())
	for _, v := range vn {
		keep[v] = true
	}
	sub, moduleMap, _ := hypergraph.SubHypergraph(h, keep)
	if sub.NumNets() < 2 {
		return nil, partition.Metrics{}, false
	}
	rsp := obs.OrNop(opts.Rec).StartSpan("recursive-completion")
	defer rsp.End()
	subOpts := opts
	subOpts.RecursionDepth--
	subOpts.Trace = nil
	subOpts.Rec = rsp
	subRes, err := Partition(sub, subOpts)
	if err != nil {
		return nil, partition.Metrics{}, false
	}

	bestMet := partition.Metrics{RatioCut: inf()}
	var bestSides []partition.Side
	for flip := 0; flip < 2; flip++ {
		for i, v := range moduleMap {
			s := subRes.Partition.Side(i)
			if flip == 1 {
				s = s.Opposite()
			}
			sides[v] = s
		}
		p := partition.FromSides(sides)
		met := partition.Evaluate(h, p)
		if met.SizeU == 0 || met.SizeW == 0 {
			continue
		}
		if better(met, bestMet) {
			bestMet = met
			bestSides = append(bestSides[:0], sides...)
		}
	}
	if bestSides == nil {
		return nil, partition.Metrics{}, false
	}
	return partition.FromSides(bestSides), bestMet, true
}

// CompleteNetPartition exposes the Phase I + Phase II completion for an
// arbitrary net bipartition (inR[e] placing net e on the R side). It
// returns the better bulk completion along with the matching size of the
// conflict graph — the Theorem 5 bound on the cut.
func CompleteNetPartition(h *hypergraph.Hypergraph, inR []bool) (*partition.Bipartition, partition.Metrics, int, error) {
	if len(inR) != h.NumNets() {
		return nil, partition.Metrics{}, 0, fmt.Errorf("core: inR has %d entries, want %d", len(inR), h.NumNets())
	}
	adj := IGAdjacency(h)
	matcher := bipartite.NewMatcher(adj)
	for e, r := range inR {
		if r {
			matcher.MoveToR(e)
		}
	}
	sets := matcher.Winners()
	sides := make([]partition.Side, h.NumModules())
	met, p, ok := completeBulk(h, sets, sides)
	if !ok {
		return nil, partition.Metrics{}, 0, errors.New("core: completion leaves a side empty")
	}
	return p, met, matcher.MatchingSize(), nil
}
