package service

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"igpart"
	"igpart/internal/core"
	"igpart/internal/hypergraph"
	"igpart/internal/jobreg"
)

// tinyNetlist builds a minimal netlist that Validate accepts: two
// modules, both on each of two nets. No split of it has a proper
// completion, so an IG-Match job on it fails.
func tinyNetlist() *igpart.Netlist {
	b := igpart.NewBuilder().SetNumModules(2)
	b.AddNet(0, 1)
	b.AddNet(0, 1)
	return b.Build()
}

func TestValidateRejectsBadRequests(t *testing.T) {
	good := tinyNetlist()
	empty := igpart.NewBuilder().SetNumModules(2).Build()
	oneModule := igpart.NewBuilder().SetNumModules(1)
	oneModule.AddNet(0)
	oneModule.AddNet(0)
	oneNet := igpart.NewBuilder().SetNumModules(3)
	oneNet.AddNet(0, 1, 2)
	cases := []struct {
		name string
		req  Request
	}{
		{"nil netlist", Request{}},
		{"zero nets", Request{Netlist: empty}},
		{"one module", Request{Netlist: oneModule.Build()}},
		{"one module, portfolio", Request{Netlist: oneModule.Build(), Options: Options{Algo: AlgoPortfolio}}},
		{"one module, kway", Request{Netlist: oneModule.Build(), Options: Options{Algo: AlgoKWay, K: 2}}},
		{"one module, kway-spectral", Request{Netlist: oneModule.Build(), Options: Options{Algo: AlgoKWaySpectral, K: 2}}},
		{"one net, default algo", Request{Netlist: oneNet.Build()}},
		{"one net, igmatch", Request{Netlist: oneNet.Build(), Options: Options{Algo: AlgoIGMatch}}},
		{"one net, multilevel", Request{Netlist: oneNet.Build(), Options: Options{Algo: AlgoMultilevel}}},
		{"negative timeout", Request{Netlist: good, Options: Options{Timeout: -time.Second}}},
		{"NaN coarsening ratio", Request{Netlist: good, Options: Options{Algo: AlgoMultilevel, CoarseningRatio: math.NaN()}}},
		{"Inf coarsening ratio", Request{Netlist: good, Options: Options{Algo: AlgoMultilevel, CoarseningRatio: math.Inf(1)}}},
		{"absurd block size", Request{Netlist: good, Options: Options{BlockSize: maxBlockSize + 1}}},
		{"block wider than matrix", Request{Netlist: good, Options: Options{BlockSize: 5}}},
		{"absurd levels", Request{Netlist: good, Options: Options{Algo: AlgoMultilevel, Levels: maxLevels + 1}}},
		{"absurd parallelism", Request{Netlist: good, Options: Options{Parallelism: maxParallelism + 1}}},
	}
	for _, tc := range cases {
		if err := tc.req.Validate(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: Validate = %v, want ErrBadRequest", tc.name, err)
		}
	}
	if err := (Request{Netlist: good}).Validate(); err != nil {
		t.Fatalf("minimal valid request rejected: %v", err)
	}
	// Portfolio and the k-way engines partition one net's modules.
	for _, o := range []Options{{Algo: AlgoPortfolio}, {Algo: AlgoKWay, K: 2}, {Algo: AlgoKWaySpectral, K: 2}} {
		if err := (Request{Netlist: oneNet.Build(), Options: o}).Validate(); err != nil {
			t.Errorf("one-net %s request rejected: %v", o.Algo, err)
		}
	}
}

// TestSubmitMapsValidationToBadRequest pins the Submit contract: both
// Validate failures and normalize failures (unknown algo/scheme) come
// back wrapping ErrBadRequest, and nothing is enqueued.
func TestSubmitMapsValidationToBadRequest(t *testing.T) {
	e := New(Config{Workers: 1})
	defer shutdownNow(t, e)
	bad := []Request{
		{},
		{Netlist: tinyNetlist(), Options: Options{Timeout: -1}},
		{Netlist: tinyNetlist(), Options: Options{Algo: "anneal"}},
		{Netlist: tinyNetlist(), Options: Options{Scheme: "bogus"}},
	}
	for i, req := range bad {
		if _, err := e.Submit(req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("bad request %d: Submit = %v, want ErrBadRequest", i, err)
		}
	}
	if got := e.Metrics().Snapshot().Counters["service.jobs_submitted"]; got != 0 {
		t.Fatalf("bad requests were enqueued: jobs_submitted = %d", got)
	}
}

// FuzzRequestValidate asserts that validation is total and consistent:
// it never panics on any option combination, rejections are typed, and
// anything Validate+normalize accept can be cache-keyed safely.
func FuzzRequestValidate(f *testing.F) {
	f.Add("igmatch", "paper", int64(0), 0, 0, 0, 0.9, uint8(4), false)
	f.Add("multilevel", "unit", int64(-5), 3, 70, 2, math.NaN(), uint8(0), false)
	f.Add("", "", int64(1<<40), -1, -1, -1, -1.0, uint8(255), true)
	f.Fuzz(func(t *testing.T, algo, scheme string, timeoutNS int64,
		blockSize, levels, parallelism int, cratio float64, nets uint8, nilNet bool) {
		var h *igpart.Netlist
		if !nilNet {
			b := igpart.NewBuilder().SetNumModules(3)
			for i := 0; i < int(nets%8); i++ {
				b.AddNet(i%3, (i+1)%3)
			}
			h = b.Build()
		}
		req := Request{Netlist: h, Options: Options{
			Algo: algo, Scheme: scheme,
			Timeout:         time.Duration(timeoutNS),
			BlockSize:       blockSize,
			Levels:          levels,
			Parallelism:     parallelism,
			CoarseningRatio: cratio,
		}}
		err := req.Validate()
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("Validate returned untyped error %v", err)
			}
			return
		}
		// Validation passed: the netlist exists and options are in range.
		if h == nil || h.NumNets() == 0 {
			t.Fatal("Validate accepted an unusable netlist")
		}
		norm, nerr := req.Options.normalize()
		if nerr != nil {
			return // unknown algo/scheme — Submit wraps this as ErrBadRequest
		}
		if key := cacheKey(h, norm); len(key) != 64 {
			t.Fatalf("cache key %q not a sha256 hex digest", key)
		}
		// Validate must be deterministic.
		if err2 := req.Validate(); err2 != nil {
			t.Fatalf("second Validate disagreed: %v", err2)
		}
	})
}

// FuzzTinyRequest runs tiny requests, at most 8 modules and 8 nets,
// through the engine under every algorithm, and holds intake validation
// to exactness: a request is rejected with ErrBadRequest, or completes,
// or fails with core.ErrNoProperCompletion, the one failure only the
// sweep itself can find. Each byte of nets is one net's pin mask.
func FuzzTinyRequest(f *testing.F) {
	algos := []string{AlgoIGMatch, AlgoMultilevel, AlgoKWay, AlgoKWaySpectral, AlgoPortfolio}
	e := New(Config{Workers: 1})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		e.Shutdown(ctx)
	})
	f.Add(uint8(0), uint8(4), []byte{0x03, 0x06, 0x0c}, uint8(2), int64(0))
	f.Add(uint8(1), uint8(2), []byte{0x03, 0x03}, uint8(0), int64(5))
	f.Add(uint8(2), uint8(8), []byte{0xff}, uint8(3), int64(-1))
	f.Add(uint8(3), uint8(5), []byte{0x11, 0x00, 0x1e}, uint8(5), int64(2))
	f.Add(uint8(4), uint8(1), []byte{0x01, 0x01}, uint8(0), int64(7))
	f.Fuzz(func(t *testing.T, algo, modules uint8, nets []byte, k uint8, seed int64) {
		n := int(modules % 9)
		b := igpart.NewBuilder().SetNumModules(n)
		for i, mask := range nets {
			if i == 8 {
				break
			}
			var pins []int
			for v := 0; v < n; v++ {
				if mask&(1<<v) != 0 {
					pins = append(pins, v)
				}
			}
			b.AddNet(pins...)
		}
		o := Options{Algo: algos[int(algo)%len(algos)], Seed: seed}
		if kwayAlgo(o.Algo) {
			o.K = int(k)
		}
		job, err := e.Submit(Request{Netlist: b.Build(), Options: o})
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("%s: rejection not typed ErrBadRequest: %v", o.Algo, err)
			}
			return
		}
		s := job.Wait(context.Background())
		if s.State != jobreg.StateDone && !errors.Is(s.Err, core.ErrNoProperCompletion) {
			t.Fatalf("%s on %d modules, nets %x: state %s, err %v", o.Algo, n, nets, s.State, s.Err)
		}
	})
}

// kwayNetlist builds a 6-module netlist whose modules carry the default
// synthesized names m0..m5.
func kwayNetlist() *igpart.Netlist {
	b := igpart.NewBuilder().SetNumModules(6)
	b.AddNet(0, 1)
	b.AddNet(1, 2)
	b.AddNet(2, 3)
	b.AddNet(3, 4)
	b.AddNet(4, 5)
	b.AddNet(0, 5)
	return b.Build()
}

func TestValidateKWayRequests(t *testing.T) {
	h := kwayNetlist()
	pin := func(m string, p int) hypergraph.FixPin { return hypergraph.FixPin{Module: m, Part: p} }
	for _, algo := range []string{AlgoKWay, AlgoKWaySpectral} {
		opt := func(mut func(*Options)) Options {
			o := Options{Algo: algo, K: 3}
			mut(&o)
			return o
		}
		bad := []struct {
			name string
			o    Options
		}{
			{"k too small", opt(func(o *Options) { o.K = 1 })},
			{"k zero", opt(func(o *Options) { o.K = 0 })},
			{"k exceeds modules", opt(func(o *Options) { o.K = 7 })},
			{"k absurd", opt(func(o *Options) { o.K = maxK + 1 })},
			{"negative eps", opt(func(o *Options) { o.Eps = -0.01 })},
			{"NaN eps", opt(func(o *Options) { o.Eps = math.NaN() })},
			{"unknown module", opt(func(o *Options) { o.Fix = []hypergraph.FixPin{pin("bogus", 0)} })},
			{"part out of range", opt(func(o *Options) { o.Fix = []hypergraph.FixPin{pin("m0", 3)} })},
			{"negative part", opt(func(o *Options) { o.Fix = []hypergraph.FixPin{pin("m0", -1)} })},
			{"conflicting duplicate", opt(func(o *Options) { o.Fix = []hypergraph.FixPin{pin("m0", 0), pin("m0", 1)} })},
			{"pins exceed cap", opt(func(o *Options) { o.Fix = []hypergraph.FixPin{pin("m0", 0), pin("m1", 0), pin("m2", 0)} })},
			{"no free module for a part", opt(func(o *Options) {
				o.K = 2
				o.Fix = []hypergraph.FixPin{pin("m0", 0), pin("m1", 0), pin("m2", 0),
					pin("m3", 0), pin("m4", 0), pin("m5", 0)}
			})},
		}
		for _, tc := range bad {
			req := Request{Netlist: h, Options: tc.o}
			if err := req.Validate(); !errors.Is(err, ErrBadRequest) {
				t.Errorf("%s/%s: Validate = %v, want ErrBadRequest", algo, tc.name, err)
			}
		}
		good := Request{Netlist: h, Options: opt(func(o *Options) {
			o.Eps = 0.1
			o.Fix = []hypergraph.FixPin{pin("m0", 0), pin("m5", 2), pin("m0", 0)}
		})}
		if err := good.Validate(); err != nil {
			t.Errorf("%s: valid kway request rejected: %v", algo, err)
		}
	}
}

// TestKWayNormalizeCanonicalizesFix pins the cache-key contract: pin
// order and exact duplicates must not split the cache, while k, eps, and
// the pin set itself must.
func TestKWayNormalizeCanonicalizesFix(t *testing.T) {
	h := kwayNetlist()
	base := Options{Algo: AlgoKWay, K: 3, Eps: 0.1,
		Fix: []hypergraph.FixPin{{Module: "m5", Part: 2}, {Module: "m0", Part: 0}, {Module: "m5", Part: 2}}}
	reordered := base
	reordered.Fix = []hypergraph.FixPin{{Module: "m0", Part: 0}, {Module: "m5", Part: 2}}
	n1, err := base.normalize()
	if err != nil {
		t.Fatal(err)
	}
	n2, err := reordered.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if k1, k2 := cacheKey(h, n1), cacheKey(h, n2); k1 != k2 {
		t.Errorf("reordered duplicate pins split the cache: %s vs %s", k1, k2)
	}
	distinct := []Options{
		{Algo: AlgoKWay, K: 3, Eps: 0.1},
		{Algo: AlgoKWay, K: 4, Eps: 0.1},
		{Algo: AlgoKWay, K: 3, Eps: 0.2},
		{Algo: AlgoKWaySpectral, K: 3, Eps: 0.1},
		{Algo: AlgoKWay, K: 3, Eps: 0.1, Fix: []hypergraph.FixPin{{Module: "m0", Part: 0}}},
	}
	seen := map[string]int{cacheKey(h, n1): -1}
	for i, o := range distinct {
		norm, err := o.normalize()
		if err != nil {
			t.Fatal(err)
		}
		key := cacheKey(h, norm)
		if prev, dup := seen[key]; dup {
			t.Errorf("options %d and %d share a cache key", i, prev)
		}
		seen[key] = i
	}
}

// FuzzKWayRequest asserts k-way validation is total and typed: no input
// panics, every rejection wraps ErrBadRequest, the documented rejections
// (k<2, negative ε, unknown modules, conflicting duplicate pins) always
// fire, and anything accepted survives normalize + cacheKey.
func FuzzKWayRequest(f *testing.F) {
	f.Add(true, 4, 0.03, "m0", 1, "m1", 2)
	f.Add(false, 1, -0.5, "m9", -1, "m0", 4096)
	f.Add(true, 2, math.NaN(), "m0", 0, "m0", 1)
	f.Add(false, 6, 0.0, "m5", 5, "m5", 5)
	f.Fuzz(func(t *testing.T, spectral bool, k int, eps float64, mod1 string, part1 int, mod2 string, part2 int) {
		h := kwayNetlist()
		algo := AlgoKWay
		if spectral {
			algo = AlgoKWaySpectral
		}
		req := Request{Netlist: h, Options: Options{
			Algo: algo, K: k, Eps: eps,
			Fix: []hypergraph.FixPin{
				{Module: mod1, Part: part1},
				{Module: mod2, Part: part2},
			},
		}}
		err := req.Validate()
		if err != nil && !errors.Is(err, ErrBadRequest) {
			t.Fatalf("Validate returned untyped error %v", err)
		}
		known := func(m string) bool {
			return len(m) == 2 && m[0] == 'm' && m[1] >= '0' && m[1] <= '5'
		}
		switch {
		case k < 2 || k > 6:
			if err == nil {
				t.Fatalf("accepted k=%d on a 6-module netlist", k)
			}
		case math.IsNaN(eps) || eps < 0:
			if err == nil {
				t.Fatalf("accepted eps=%v", eps)
			}
		case !known(mod1) || !known(mod2):
			if err == nil {
				t.Fatalf("accepted unknown module %q/%q", mod1, mod2)
			}
		case part1 < 0 || part1 >= k || part2 < 0 || part2 >= k:
			if err == nil {
				t.Fatalf("accepted out-of-range pin part %d/%d with k=%d", part1, part2, k)
			}
		case mod1 == mod2 && part1 != part2:
			if err == nil {
				t.Fatalf("accepted module %q pinned to both %d and %d", mod1, part1, part2)
			}
		}
		if err != nil {
			return
		}
		norm, nerr := req.Options.normalize()
		if nerr != nil {
			t.Fatalf("normalize rejected what Validate accepted: %v", nerr)
		}
		if key := cacheKey(h, norm); len(key) != 64 {
			t.Fatalf("cache key %q not a sha256 hex digest", key)
		}
		if err2 := req.Validate(); err2 != nil {
			t.Fatalf("second Validate disagreed: %v", err2)
		}
	})
}
