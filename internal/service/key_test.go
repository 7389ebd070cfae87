package service

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"igpart"
	"igpart/internal/hypergraph"
)

// sameResult reports whether two normalized option sets must yield one
// result: they are equal once Parallelism and Timeout, which never
// change a result, are cleared. A nil and an empty pin list are the
// same list.
func sameResult(a, b Options) bool {
	if !slices.Equal(a.Fix, b.Fix) {
		return false
	}
	a.Parallelism, a.Timeout, a.Fix = 0, 0, nil
	b.Parallelism, b.Timeout, b.Fix = 0, 0, nil
	return reflect.DeepEqual(a, b)
}

// optionVariants lists edits that together touch every option field:
// each one alone, and a few pairs.
func optionVariants(h *igpart.Netlist) []func(*Options) {
	a, b := h.ModuleName(0), h.ModuleName(1)
	return []func(*Options){
		func(o *Options) {},
		func(o *Options) { o.Scheme = "" },
		func(o *Options) { o.Scheme = "unit" },
		func(o *Options) { o.Scheme = "overlap" },
		func(o *Options) { o.Scheme = "minsize" },
		func(o *Options) { o.Threshold = -1 },
		func(o *Options) { o.Threshold = 5 },
		func(o *Options) { o.Threshold = 9 },
		func(o *Options) { o.Seed = 7 },
		func(o *Options) { o.Seed = -3 },
		func(o *Options) { o.BlockSize = -1 },
		func(o *Options) { o.BlockSize = 2 },
		func(o *Options) { o.BlockSize = 4 },
		func(o *Options) { o.Levels = 3 },
		func(o *Options) { o.Levels = 4 },
		func(o *Options) { o.CoarseningRatio = 0.9 },
		func(o *Options) { o.CoarseningRatio = 0.5 },
		func(o *Options) { o.CoarseningRatio = 1.5 },
		func(o *Options) { o.K = 2 },
		func(o *Options) { o.K = 5 },
		func(o *Options) { o.Eps = 0 },
		func(o *Options) { o.Eps = 0.25 },
		func(o *Options) { o.Fix = []hypergraph.FixPin{{Module: a, Part: 0}, {Module: b, Part: 1}} },
		func(o *Options) { o.Fix = []hypergraph.FixPin{{Module: b, Part: 1}, {Module: a, Part: 0}} },
		func(o *Options) {
			o.Fix = []hypergraph.FixPin{{Module: a, Part: 0}, {Module: b, Part: 1}, {Module: a, Part: 0}}
		},
		func(o *Options) { o.Fix = []hypergraph.FixPin{{Module: a, Part: 1}} },
		func(o *Options) { o.Budget = time.Second },
		func(o *Options) { o.Budget = 2 * time.Second },
		func(o *Options) { o.Accept = 0.5 },
		func(o *Options) { o.Accept = 0.75 },
		func(o *Options) { o.Parallelism = 4 },
		func(o *Options) { o.Timeout = time.Minute },
		func(o *Options) { o.Parallelism, o.Timeout, o.Seed = 2, time.Second, 7 },
		func(o *Options) { o.Scheme, o.Threshold = "unit", 5 },
		func(o *Options) { o.Threshold, o.Seed = 5, 5 },
		func(o *Options) { o.Levels, o.CoarseningRatio = 4, 0.5 },
		func(o *Options) { o.K, o.Fix = 2, []hypergraph.FixPin{{Module: b, Part: 1}} },
		func(o *Options) { o.Budget, o.Accept = time.Second, 0.5 },
	}
}

// normalizedGrid applies every variant to every algorithm's base
// options (k-way bases carry k=3, ε=0.1) and normalizes the result.
func normalizedGrid(t *testing.T, h *igpart.Netlist, algos []string) []Options {
	t.Helper()
	var grid []Options
	for _, algo := range algos {
		for _, v := range optionVariants(h) {
			o := Options{Algo: algo}
			if kwayAlgo(algo) {
				o.K, o.Eps = 3, 0.1
			}
			v(&o)
			n, err := o.normalize()
			if err != nil {
				t.Fatalf("normalize %+v: %v", o, err)
			}
			if again, err := n.normalize(); err != nil || !reflect.DeepEqual(again, n) {
				t.Fatalf("normalize is not idempotent on %+v: %+v (err %v)", n, again, err)
			}
			grid = append(grid, n)
		}
	}
	return grid
}

// TestCacheKeyEquivalence pins which requests share a result-cache
// entry: two normalized option sets share a cacheKey exactly when they
// are equal once Parallelism and Timeout are cleared. Keys are compared
// with each other, never with recorded hashes, so the encoding is free
// to change.
func TestCacheKeyEquivalence(t *testing.T) {
	h := genNetlist(t, 30, 36, 2)
	grid := normalizedGrid(t, h, []string{"", AlgoIGMatch, AlgoMultilevel, AlgoKWay, AlgoKWaySpectral, AlgoPortfolio})
	keys := make([]string, len(grid))
	for i, o := range grid {
		keys[i] = cacheKey(h, o)
	}
	shared, distinct := 0, 0
	for i := range grid {
		for j := i + 1; j < len(grid); j++ {
			same := sameResult(grid[i], grid[j])
			if same != (keys[i] == keys[j]) {
				t.Fatalf("%+v and %+v: same result %v, shared key %v", grid[i], grid[j], same, keys[i] == keys[j])
			}
			if same {
				shared++
			} else {
				distinct++
			}
		}
	}
	if shared == 0 || distinct == 0 {
		t.Fatalf("grid has %d sharing and %d distinct pairs; want both", shared, distinct)
	}
}

// TestDeltaCacheKeyEquivalence makes the same check for ECO delta jobs
// against one base. A delta job's options are the base's, normalized as
// an IG-Match solve. Two delta jobs share a deltaCacheKey exactly when
// they carry one edit set, listed in any order, under options equal
// once Parallelism and Timeout are cleared.
func TestDeltaCacheKeyEquivalence(t *testing.T) {
	h := genNetlist(t, 30, 36, 2)
	d := smallDelta(t, h)
	// Each family is one edit set, listed in different orders.
	families := [][]igpart.NetlistDelta{
		{d, {AddNets: [][]int{{2, 0, 1}}, RemoveNets: d.RemoveNets, AddPins: d.AddPins, RemovePins: d.RemovePins}},
		{{RemoveNets: []int{3, 5}}, {RemoveNets: []int{5, 3}}},
		{{RemoveNets: []int{3}}},
		{{AddNets: [][]int{{0, 1, 2}, {4, 5}}}, {AddNets: [][]int{{5, 4}, {1, 2, 0}}}},
		{
			{AddPins: []igpart.DeltaPin{{Net: 0, Module: 7}, {Net: 1, Module: 8}}},
			{AddPins: []igpart.DeltaPin{{Net: 1, Module: 8}, {Net: 0, Module: 7}}},
		},
	}
	var grid []Options
	for _, o := range normalizedGrid(t, h, []string{AlgoIGMatch}) {
		if o.Algo != AlgoIGMatch {
			t.Fatalf("delta options %+v are not IG-Match options", o)
		}
		grid = append(grid, o)
	}
	type job struct {
		family int
		o      Options
		key    string
	}
	var jobs []job
	for f, fam := range families {
		for _, delta := range fam {
			for _, o := range grid {
				jobs = append(jobs, job{f, o, deltaCacheKey(netKey(h), delta, o)})
			}
		}
	}
	for i := range jobs {
		for j := i + 1; j < len(jobs); j++ {
			a, b := jobs[i], jobs[j]
			same := a.family == b.family && sameResult(a.o, b.o)
			if same != (a.key == b.key) {
				t.Fatalf("family %d %+v and family %d %+v: same job %v, shared key %v",
					a.family, a.o, b.family, b.o, same, a.key == b.key)
			}
		}
	}
}
