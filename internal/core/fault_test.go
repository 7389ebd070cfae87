package core

import (
	"strings"
	"testing"

	"igpart/internal/fault"
	"igpart/internal/hypergraph"
	"igpart/internal/obs"
)

// panicRecorder is an obs.Recorder whose Count panics inside any span
// whose name marks a sweep shard. Because sweepShard records counters
// on its shard span from inside the worker goroutine, this drives a
// genuine mid-shard panic through the production code path — the
// closest a test can get to "the matcher blew up on this shard".
type panicRecorder struct {
	name string
	reg  *obs.Registry
}

func (p *panicRecorder) StartSpan(name string) obs.Recorder {
	return &panicRecorder{name: name, reg: p.reg}
}

func (p *panicRecorder) Count(name string, delta int64) {
	if strings.HasPrefix(p.name, "shard[") {
		panic("synthetic shard failure in " + p.name)
	}
}

func (p *panicRecorder) End()                   {}
func (p *panicRecorder) Metrics() *obs.Registry { return p.reg }
func (p *panicRecorder) Enabled() bool          { return true }

// sweeps are the two sweeps the fault tests drive — the full sweep and
// the candidate sweep at 12 candidates — each named by the word its
// shard-panic error uses.
var sweeps = []struct {
	name string
	run  func(h *hypergraph.Hypergraph, opts Options) (Result, error)
}{
	{"sweep", Partition},
	{"candidate", func(h *hypergraph.Hypergraph, opts Options) (Result, error) {
		return PartitionCandidates(h, 12, opts)
	}},
}

// TestSweepShardPanicIsolated asserts the shard recover barrier of the
// full and the candidate sweep: a panic raised inside a shard — serial
// or on a worker goroutine — must not crash the process, must surface as
// a structured PanicError with a captured stack, and must bump the
// sweep.shard_panics counter.
func TestSweepShardPanicIsolated(t *testing.T) {
	h := randomCircuit(t, 1)
	for _, sw := range sweeps {
		for _, p := range []int{1, 4} {
			reg := new(obs.Registry)
			_, err := sw.run(h, Options{Parallelism: p, Rec: &panicRecorder{reg: reg}})
			if err == nil {
				t.Fatalf("%s P=%d: shard panic did not fail the run", sw.name, p)
			}
			if want := "core: " + sw.name + " shard panicked"; !strings.Contains(err.Error(), want) {
				t.Fatalf("%s P=%d: err = %v, want %q wrapper", sw.name, p, err, want)
			}
			pe, ok := fault.AsPanic(err)
			if !ok {
				t.Fatalf("%s P=%d: err = %v, want wrapped fault.PanicError", sw.name, p, err)
			}
			if !strings.Contains(pe.Error(), "synthetic shard failure") {
				t.Fatalf("%s P=%d: panic value lost: %v", sw.name, p, pe)
			}
			if len(pe.Stack) == 0 {
				t.Fatalf("%s P=%d: panic stack not captured", sw.name, p)
			}
			if got := reg.Snapshot().Counters["sweep.shard_panics"]; got < 1 {
				t.Fatalf("%s P=%d: sweep.shard_panics = %d, want ≥ 1", sw.name, p, got)
			}
		}
	}
}

// TestSlowShardInjectionParity asserts that the sweep.slow-shard point
// fires on the shards of the full and the candidate sweep and only adds
// latency: results under injection are bit-identical to a clean run at
// the same parallelism.
func TestSlowShardInjectionParity(t *testing.T) {
	h := randomCircuit(t, 2)
	for _, sw := range sweeps {
		clean, err := sw.run(h, Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		inj, err := fault.New(7, nil, fault.Rule{Point: fault.SweepSlowShard})
		if err != nil {
			t.Fatal(err)
		}
		slow, err := sw.run(h, Options{Parallelism: 4, Fault: inj})
		if err != nil {
			t.Fatal(err)
		}
		if inj.Fires(fault.SweepSlowShard) < 1 {
			t.Fatalf("%s: slow-shard point never fired", sw.name)
		}
		if clean.BestRank != slow.BestRank || clean.Metrics != slow.Metrics {
			t.Fatalf("%s: slow-shard injection changed the result: %+v vs %+v", sw.name, clean.Metrics, slow.Metrics)
		}
		if !samePartition(clean.Partition, slow.Partition) {
			t.Fatalf("%s: module sides differ under slow-shard injection", sw.name)
		}
	}
}

// TestEigenFaultThreadedThroughCore asserts Options.Fault reaches the
// eigensolver: with eigen.noconverge armed once, the run still succeeds
// (the fallback chain absorbs it) and the point records its fire.
func TestEigenFaultThreadedThroughCore(t *testing.T) {
	h := randomCircuit(t, 0)
	inj, err := fault.New(3, nil, fault.Rule{Point: fault.EigenNoConverge, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Partition(h, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Partition(h, Options{Parallelism: 1, Fault: inj})
	if err != nil {
		t.Fatalf("Partition with one injected non-convergence: %v", err)
	}
	if inj.Fires(fault.EigenNoConverge) != 1 {
		t.Fatalf("eigen.noconverge fired %d times, want 1", inj.Fires(fault.EigenNoConverge))
	}
	// The retry rung solves the same eigenproblem, so the sweep sees the
	// same ordering up to eigenvector sign/degeneracy; the ratio cut of
	// the winning split must match the clean run on this instance.
	if res.Metrics.RatioCut != clean.Metrics.RatioCut {
		t.Fatalf("ratio cut diverged under retry rung: %v vs %v",
			res.Metrics.RatioCut, clean.Metrics.RatioCut)
	}
}
