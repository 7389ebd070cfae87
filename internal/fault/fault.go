// Package fault is the deterministic fault-injection layer of the
// pipeline: named injection points, seeded trigger rules, and the
// structured panic error the recovery barriers produce.
//
// The design goal is a provable no-op when disabled: every check site
// calls Injector.Active on a possibly-nil *Injector, and the nil
// receiver returns false after a single comparison — there is no global
// state, no registration, and nothing to strip from production builds.
// When an injector *is* armed, every decision is a deterministic
// function of (seed, point, arm count): two runs with the same seed and
// the same per-point call sequence fire at exactly the same arms, which
// is what lets the chaos suite assert exact counters and lets a failure
// be replayed from its seed.
//
// Injection points are pure decision oracles — the injector never
// panics, sleeps, or errors by itself. The call site owns the faulty
// behavior (panicking, returning a non-convergence error, sleeping,
// purging a cache), so each point's blast radius is visible in the code
// that hosts it.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"

	"igpart/internal/obs"
)

// Point names one fault-injection site. Points are stable identifiers:
// they appear in flag specs, metric names, and test assertions.
type Point string

// The injection points wired through the pipeline.
const (
	// WorkerPanic fires inside a service worker's recovery barrier,
	// panicking before the solve starts. Exercises panic isolation.
	WorkerPanic Point = "worker.panic"
	// WorkerStall fires inside a service worker's recovery barrier,
	// holding the job's solve until the job is cancelled or its deadline
	// passes. Exercises the lifecycle of a job that stays running.
	WorkerStall Point = "worker.stall"
	// EigenNoConverge fires at the entry of a Lanczos (or block-Lanczos)
	// solve, simulating non-convergence. Exercises the Fiedler fallback
	// chain (reseeded retry, then dense Jacobi).
	EigenNoConverge Point = "eigen.noconverge"
	// SweepSlowShard fires at the start of a sweep shard, injecting a
	// straggler delay. Results are unaffected; exercises shard skew.
	SweepSlowShard Point = "sweep.slow-shard"
	// CacheEvictStorm fires on a result-cache store, purging every
	// cached entry first. Exercises cold-cache behavior and eviction
	// accounting.
	CacheEvictStorm Point = "cache.evict-storm"
	// IOReadErr fires when the daemon resolves a submission's netlist
	// source, simulating a failed read. Exercises transient-error
	// surfacing (HTTP 503, not 400).
	IOReadErr Point = "io.read-err"
	// CoordCrash fires in the coordinator right after a job is journaled
	// but before any backend sees it — the coordinator then dies
	// crash-style (intake closed, runners aborted, nothing journaled as
	// done). Exercises standby takeover and journal replay: the accepted
	// set must resurface under its original IDs.
	CoordCrash Point = "coord.crash"
	// JournalWriteErr fires inside a journal append, failing the write
	// before it reaches disk. Exercises the accept-before-acknowledge
	// contract (submission rejected, client retries) and lease-renewal
	// resilience.
	JournalWriteErr Point = "journal.write-err"
)

// Points lists every known injection point in stable order.
func Points() []Point {
	return []Point{WorkerPanic, WorkerStall, EigenNoConverge, SweepSlowShard, CacheEvictStorm, IOReadErr, CoordCrash, JournalWriteErr}
}

func knownPoint(p Point) bool {
	for _, q := range Points() {
		if q == p {
			return true
		}
	}
	return false
}

// Rule arms one injection point. The zero trigger configuration
// (P == 0, Every == 0) defaults to firing on every arm.
type Rule struct {
	// Point is the site this rule arms.
	Point Point
	// P fires with this probability per arm, drawn from the rule's own
	// seeded stream. 0 means "not probability-gated" (see Every);
	// values ≥ 1 always pass the probability gate.
	P float64
	// Every fires on every Nth arm (1 = every arm). 0 with P == 0
	// defaults to 1. Every and P compose: the arm must be an Nth hit
	// AND win the coin flip.
	Every int
	// Limit caps the total number of fires; 0 means unlimited. Once
	// exhausted the point never fires again.
	Limit int
}

type ruleState struct {
	Rule
	rng   *rand.Rand
	arms  int64
	fires int64
}

// Injector decides, deterministically per seed, whether each armed
// injection point fires. The nil injector is the disabled layer: every
// method is nil-receiver-safe and Active returns false immediately.
type Injector struct {
	seed int64
	reg  *obs.Registry

	mu    sync.Mutex
	rules map[Point]*ruleState
}

// New builds an injector firing the given rules under the given seed.
// reg, when non-nil, receives a fault.fired.<point> counter per trigger
// (and fault.armed.<point> per check of an armed point). Unknown points
// are rejected so a typo in a spec cannot silently disarm a chaos run.
func New(seed int64, reg *obs.Registry, rules ...Rule) (*Injector, error) {
	in := &Injector{seed: seed, reg: reg, rules: make(map[Point]*ruleState, len(rules))}
	for _, r := range rules {
		if !knownPoint(r.Point) {
			return nil, fmt.Errorf("fault: unknown injection point %q", r.Point)
		}
		if _, dup := in.rules[r.Point]; dup {
			return nil, fmt.Errorf("fault: duplicate rule for point %q", r.Point)
		}
		if r.P < 0 || math.IsNaN(r.P) {
			return nil, fmt.Errorf("fault: point %q: probability %v out of range", r.Point, r.P)
		}
		if r.Every < 0 {
			return nil, fmt.Errorf("fault: point %q: negative period %d", r.Point, r.Every)
		}
		if r.Limit < 0 {
			return nil, fmt.Errorf("fault: point %q: negative limit %d", r.Point, r.Limit)
		}
		if r.Every == 0 && r.P == 0 {
			r.Every = 1 // bare point: fire on every arm
		}
		if r.Every == 0 {
			r.Every = 1
		}
		in.rules[r.Point] = &ruleState{Rule: r, rng: rand.New(rand.NewSource(pointSeed(seed, r.Point)))}
	}
	return in, nil
}

// pointSeed derives a per-point RNG seed so each point draws from its
// own deterministic stream regardless of what other points do.
func pointSeed(seed int64, p Point) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, p)
	return int64(h.Sum64())
}

// Active reports whether the point fires at this arm, advancing the
// point's deterministic decision stream. A nil injector, or one with no
// rule for the point, returns false without any further work — the
// disabled path is a nil check and a map miss.
func (in *Injector) Active(p Point) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	rs, ok := in.rules[p]
	if !ok {
		in.mu.Unlock()
		return false
	}
	rs.arms++
	fire := rs.Limit == 0 || rs.fires < int64(rs.Limit)
	if fire && rs.arms%int64(rs.Every) != 0 {
		fire = false
	}
	if fire && rs.P > 0 && rs.P < 1 {
		// One draw per period-eligible arm keeps the stream aligned with
		// the arm sequence even when the limit is exhausted later.
		fire = rs.rng.Float64() < rs.P
	}
	if fire {
		rs.fires++
	}
	reg := in.reg
	in.mu.Unlock()
	if fire {
		reg.Counter("fault.fired." + string(p)).Add(1)
	}
	return fire
}

// Fires returns how many times the point has fired so far.
func (in *Injector) Fires(p Point) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if rs, ok := in.rules[p]; ok {
		return rs.fires
	}
	return 0
}

// Arms returns how many times the point has been checked so far.
func (in *Injector) Arms(p Point) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if rs, ok := in.rules[p]; ok {
		return rs.arms
	}
	return 0
}

// Seed returns the injector's seed (0 for nil).
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// String renders the armed rules in stable order, e.g. for startup logs.
func (in *Injector) String() string {
	if in == nil {
		return "fault: disabled"
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	points := make([]string, 0, len(in.rules))
	for p := range in.rules {
		points = append(points, string(p))
	}
	sort.Strings(points)
	var b strings.Builder
	fmt.Fprintf(&b, "fault: seed=%d", in.seed)
	for _, p := range points {
		rs := in.rules[Point(p)]
		fmt.Fprintf(&b, " %s(p=%g,every=%d,limit=%d)", p, rs.P, rs.Every, rs.Limit)
	}
	return b.String()
}

// Parse builds an injector from a flag-style spec: comma-separated
// entries of the form
//
//	point[:key=value[:key=value...]]
//
// with keys p (fire probability), every (fire on every Nth arm), and
// limit (total fire cap). A bare point fires on every arm. Examples:
//
//	worker.panic
//	worker.panic:limit=1,eigen.noconverge
//	sweep.slow-shard:p=0.25,io.read-err:every=3:limit=10
//
// An empty spec returns a nil injector — the disabled layer.
func Parse(spec string, seed int64, reg *obs.Registry) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var rules []Rule
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		r := Rule{Point: Point(parts[0])}
		for _, kv := range parts[1:] {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("fault: spec entry %q: %q is not key=value", entry, kv)
			}
			switch key {
			case "p":
				f, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("fault: spec entry %q: bad probability %q", entry, val)
				}
				r.P = f
			case "every":
				n, err := strconv.Atoi(val)
				if err != nil {
					return nil, fmt.Errorf("fault: spec entry %q: bad period %q", entry, val)
				}
				r.Every = n
			case "limit":
				n, err := strconv.Atoi(val)
				if err != nil {
					return nil, fmt.Errorf("fault: spec entry %q: bad limit %q", entry, val)
				}
				r.Limit = n
			default:
				return nil, fmt.Errorf("fault: spec entry %q: unknown key %q", entry, key)
			}
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, nil
	}
	return New(seed, reg, rules...)
}

// PanicError is the structured error a recovery barrier produces from a
// recovered panic: the panic value plus the goroutine stack captured at
// the recovery site. It is how a worker panic becomes a failed job
// instead of a dead process.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the stack trace captured inside the recover barrier.
	Stack []byte
}

// Recovered wraps a recover() value into a PanicError, capturing the
// current stack. Call it only from inside a deferred recover barrier.
func Recovered(v any) *PanicError {
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// Error renders the panic value; the stack is kept structured so
// transports can surface it separately.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Value)
}

// AsPanic extracts a PanicError from an error chain, if present.
func AsPanic(err error) (*PanicError, bool) {
	var pe *PanicError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}
