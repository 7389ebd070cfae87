package service

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"igpart"
	"igpart/internal/hypergraph"
	"igpart/internal/multiway"
)

// The algorithms the engine serves. Only the deterministic pipeline
// entry points are exposed: a job is a pure function of (netlist,
// normalized options), which is what makes results content-addressable.
const (
	AlgoIGMatch      = "igmatch"
	AlgoMultilevel   = "multilevel"
	AlgoKWay         = "kway"
	AlgoKWaySpectral = "kway-spectral"
	AlgoPortfolio    = "portfolio"
)

// kwayAlgo reports whether the algorithm runs the balanced k-way engine.
func kwayAlgo(algo string) bool {
	return algo == AlgoKWay || algo == AlgoKWaySpectral
}

// Options are the solver knobs a job may set. The zero value runs flat
// IG-Match with the paper's configuration.
type Options struct {
	// Algo selects the pipeline: AlgoIGMatch (default) or AlgoMultilevel.
	Algo string
	// Scheme names the intersection-graph edge weighting: "paper"
	// (default), "unit", "overlap", or "minsize".
	Scheme string
	// Threshold excludes nets above this size from the eigensolve IG.
	Threshold int
	// Seed seeds the Lanczos starting vector.
	Seed int64
	// BlockSize selects block Lanczos when > 1.
	BlockSize int
	// Parallelism bounds the sweep shard count (0 = GOMAXPROCS). Results
	// are bit-identical at every value, so it is NOT part of the cache
	// key: a cached result satisfies any parallelism.
	Parallelism int
	// Levels is the V-cycle depth for AlgoMultilevel (default 3).
	Levels int
	// CoarseningRatio is the V-cycle stall threshold (default 0.9).
	CoarseningRatio float64
	// K is the part count for AlgoKWay/AlgoKWaySpectral (≥ 2, required).
	K int
	// Eps is the k-way imbalance budget ε ≥ 0: each part holds at most
	// ⌈(1+ε)·n/K⌉ modules. 0 demands perfect balance.
	Eps float64
	// Fix pins named modules to parts for AlgoKWay/AlgoKWaySpectral.
	// Names must exist in the netlist; a module may not be pinned to two
	// different parts.
	Fix []hypergraph.FixPin
	// Budget bounds the AlgoPortfolio race; contenders still running at
	// expiry are cancelled and the best finished result wins. 0 waits
	// for every contender, which (with Accept 0) makes the outcome
	// deterministic — the configuration the cache assumes.
	Budget time.Duration
	// Accept is the AlgoPortfolio acceptance ratio-cut bound: the first
	// contender at or under it wins immediately. Positive values make
	// the winner timing-dependent; a cached result is then one valid
	// outcome, not the unique one.
	Accept float64
	// Timeout is the per-job deadline, measured from submission so that
	// queue wait counts against it. 0 uses the engine default; the
	// engine's MaxTimeout caps it. Not part of the cache key.
	Timeout time.Duration
}

// Request is one partitioning job: a netlist plus solver options.
type Request struct {
	Netlist *igpart.Netlist
	Options Options
	// warm is set by SubmitDelta, and only there: it makes the request
	// an ECO delta job, whose Netlist is the applied netlist and whose
	// IG-Match solve warm-starts from warm.
	warm *warmSpec
}

// warmSpec is what an ECO delta job warm-starts from: the base netlist,
// the base result's net ordering and winning rank, and the delta.
type warmSpec struct {
	base  *igpart.Netlist
	order []int
	rank  int
	delta igpart.NetlistDelta
}

// ErrBadRequest is the typed rejection for malformed requests: the
// caller sent something that can never run, as opposed to transient
// engine conditions like ErrQueueFull. cmd/igpartd maps it to HTTP 400.
var ErrBadRequest = errors.New("service: bad request")

// Validation bounds for knobs where any larger value signals a
// corrupted or hostile request rather than a real configuration.
const (
	maxBlockSize   = 1 << 10 // block Lanczos beyond this is never useful
	maxLevels      = 64      // a 64-deep V-cycle exceeds any real netlist
	maxParallelism = 1 << 16
	maxK           = 1 << 12 // beyond 4096 parts the recursion is abuse, not CAD
	maxFixPins     = 1 << 20
)

// badf wraps a formatted validation failure in ErrBadRequest.
func badf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}

// Validate rejects requests that can never run: no or empty netlist,
// negative timeouts, and option values outside any sane range. It is
// called by Engine.Submit before normalization; everything it rejects
// wraps ErrBadRequest so transports can classify with errors.Is.
func (r Request) Validate() error {
	if r.Netlist == nil {
		return badf("request has no netlist")
	}
	if r.Netlist.NumNets() == 0 {
		return badf("netlist has no nets")
	}
	if r.Netlist.NumModules() == 0 {
		return badf("netlist has no modules")
	}
	o := r.Options
	if o.Timeout < 0 {
		return badf("negative timeout %v", o.Timeout)
	}
	if math.IsNaN(o.CoarseningRatio) || math.IsInf(o.CoarseningRatio, 0) {
		return badf("coarsening ratio is not finite")
	}
	if o.BlockSize > maxBlockSize {
		return badf("block size %d exceeds %d", o.BlockSize, maxBlockSize)
	}
	if o.Levels > maxLevels {
		return badf("levels %d exceeds %d", o.Levels, maxLevels)
	}
	if o.Parallelism > maxParallelism {
		return badf("parallelism %d exceeds %d", o.Parallelism, maxParallelism)
	}
	if o.Budget < 0 {
		return badf("negative portfolio budget %v", o.Budget)
	}
	if math.IsNaN(o.Accept) || math.IsInf(o.Accept, 0) || o.Accept < 0 {
		return badf("portfolio accept bound %v, need a finite value >= 0", o.Accept)
	}
	if o.BlockSize > r.Netlist.NumNets() {
		// The eigenproblem's dimension is the net count; a block wider
		// than the matrix is a unit confusion on the caller's side.
		return badf("block size %d exceeds net count %d", o.BlockSize, r.Netlist.NumNets())
	}
	if kwayAlgo(o.Algo) {
		if o.K > maxK {
			return badf("k %d exceeds %d", o.K, maxK)
		}
		// The k-way contract is checked in two steps: k, n and ε before
		// the pin list is resolved against k, the pins once it is.
		n := r.Netlist.NumModules()
		if _, err := multiway.CheckContract(n, o.K, o.Eps, nil); err != nil {
			return badf("%v", err)
		}
		if len(o.Fix) > maxFixPins {
			return badf("%d fix pins exceed %d", len(o.Fix), maxFixPins)
		}
		// Resolving the pin list surfaces unknown module names, part
		// indices outside [0,k), and modules pinned two different ways.
		fix, err := hypergraph.FixFromPins(r.Netlist, o.Fix, o.K)
		if err != nil {
			return badf("%v", err)
		}
		// Reject infeasible pin loads up front (the engine would fail the
		// job anyway, but a 400 beats a failed job): a part's pins must
		// fit under the ε cap, and every pin-less part needs a free module.
		if _, err := multiway.CheckContract(n, o.K, o.Eps, fix.Part); err != nil {
			return badf("%v", err)
		}
	}
	return nil
}

// schemes maps the wire names onto the weight-scheme constants.
var schemes = map[string]igpart.WeightScheme{
	"":        igpart.SchemePaper,
	"paper":   igpart.SchemePaper,
	"unit":    igpart.SchemeUnit,
	"overlap": igpart.SchemeOverlap,
	"minsize": igpart.SchemeMinSize,
}

// normalize applies defaults and validates the options. It is the one
// place that says which options an algorithm reads: the switch lists
// each algorithm's read set, and every field outside it stays zero. So
// two option sets that normalize equal always produce identical
// results, and the cache key writes every field without a
// per-algorithm branch. Every algorithm reads Seed, Parallelism and
// Timeout.
func (o Options) normalize() (Options, error) {
	n := Options{Algo: o.Algo, Seed: o.Seed, Parallelism: o.Parallelism, Timeout: o.Timeout}
	switch o.Algo {
	case "", AlgoIGMatch:
		n.Algo = AlgoIGMatch
		n.Scheme, n.Threshold, n.BlockSize = o.Scheme, o.Threshold, o.BlockSize
	case AlgoMultilevel:
		n.Scheme, n.Threshold, n.BlockSize = o.Scheme, o.Threshold, o.BlockSize
		n.Levels, n.CoarseningRatio = o.Levels, o.CoarseningRatio
		if n.Levels <= 0 {
			n.Levels = 3
		}
		if n.CoarseningRatio <= 0 || n.CoarseningRatio > 1 {
			n.CoarseningRatio = 0.9
		}
	case AlgoKWay:
		n.Scheme, n.Threshold, n.BlockSize = o.Scheme, o.Threshold, o.BlockSize
		n.K, n.Eps, n.Fix = o.K, o.Eps, o.Fix
	case AlgoKWaySpectral:
		// The spectral engine solves on the module Laplacian, which reads
		// neither scheme nor threshold.
		n.BlockSize = o.BlockSize
		n.K, n.Eps, n.Fix = o.K, o.Eps, o.Fix
	case AlgoPortfolio:
		// The race reads none of scheme, threshold and block size.
		n.Budget, n.Accept = o.Budget, o.Accept
	default:
		return o, fmt.Errorf("service: unknown algorithm %q", o.Algo)
	}
	// An unknown scheme fails on every algorithm, whether it reads the
	// scheme or not.
	if _, ok := schemes[o.Scheme]; !ok {
		return o, fmt.Errorf("service: unknown weight scheme %q", o.Scheme)
	}
	if n.Scheme == "" {
		n.Scheme = "paper"
	}
	if n.Threshold < 0 {
		n.Threshold = 0
	}
	if n.BlockSize < 0 {
		n.BlockSize = 0
	}
	// Canonicalize the pin list so equivalent requests share a cache
	// key: sorted by (module, part), exact duplicates dropped. Validate
	// already rejected conflicting duplicates.
	if len(n.Fix) > 0 {
		fix := append([]hypergraph.FixPin(nil), n.Fix...)
		sort.Slice(fix, func(a, b int) bool {
			if fix[a].Module != fix[b].Module {
				return fix[a].Module < fix[b].Module
			}
			return fix[a].Part < fix[b].Part
		})
		dedup := fix[:1]
		for _, p := range fix[1:] {
			if p != dedup[len(dedup)-1] {
				dedup = append(dedup, p)
			}
		}
		n.Fix = dedup
	}
	return n, nil
}

// key content-addresses the request for the result cache: an ECO delta
// job by its base, delta and options, any other job by its netlist and
// options.
func (r Request) key() string {
	if r.warm != nil {
		return deltaCacheKey(r.warm.base, r.warm.delta, r.Options)
	}
	return cacheKey(r.Netlist, r.Options)
}

// cacheKey content-addresses a job by its canonicalized netlist and its
// normalized options. o must already be normalized.
func cacheKey(h *igpart.Netlist, o Options) string {
	return contentKey(h.CanonicalBytes(), "", o)
}

// deltaCacheKey content-addresses an ECO delta job by the base netlist
// as numbered, the delta's canonical encoding and the normalized
// options. The base enters with its own net numbering because the delta
// names nets by index: one delta against two orderings of the same nets
// removes different nets. Keying on (base, delta) rather than the
// applied netlist means a re-submitted identical ECO hits without
// re-applying, and equivalent deltas (same edits, different list order)
// share an entry via Canonical's sorted encoding.
func deltaCacheKey(base *igpart.Netlist, d igpart.NetlistDelta, o Options) string {
	return contentKey(base.NumberedBytes(), d.Canonical(), o)
}

// contentKey is the one key encoder: SHA-256 over a netlist encoding, a
// delta's canonical encoding ("" for a cold job) and every field of the
// normalized options but Parallelism and Timeout, which never change a
// result. normalize zeroes what an algorithm does not read, so no field
// needs a per-algorithm branch here.
func contentKey(netlist []byte, delta string, o Options) string {
	sum := sha256.New()
	sum.Write(netlist)
	fmt.Fprintf(sum, "|delta=%q|algo=%s|scheme=%s|thr=%d|seed=%d|block=%d",
		delta, o.Algo, o.Scheme, o.Threshold, o.Seed, o.BlockSize)
	fmt.Fprintf(sum, "|levels=%d|cratio=%g", o.Levels, o.CoarseningRatio)
	fmt.Fprintf(sum, "|k=%d|eps=%g", o.K, o.Eps)
	// Unlike Timeout, the race budget and acceptance bound change which
	// contender wins, so they key the entry.
	fmt.Fprintf(sum, "|budget=%d|accept=%g", o.Budget, o.Accept)
	for _, p := range o.Fix {
		// %q-quoted names keep hostile module names from forging the
		// delimiter structure.
		fmt.Fprintf(sum, "|pin=%q:%d", p.Module, p.Part)
	}
	return fmt.Sprintf("%x", sum.Sum(nil))
}
