package fm

import (
	"errors"

	"igpart/internal/hypergraph"
	"igpart/internal/partition"
)

// RefinePartition improves an existing bipartition in place with ratio-cut
// FM passes (no random restart — the paper's Section 5 suggestion of
// polishing spectral output with standard iterative techniques). It returns
// the metrics of the refined partition and the number of passes run.
func RefinePartition(h *hypergraph.Hypergraph, p *partition.Bipartition, opts Options) (partition.Metrics, int, error) {
	if h.NumModules() < 2 {
		return partition.Metrics{}, 0, errors.New("fm: need at least 2 modules")
	}
	if p.NumModules() != h.NumModules() {
		return partition.Metrics{}, 0, errors.New("fm: partition size mismatch")
	}
	opts = opts.withDefaults()
	if opts.Fixed != nil && len(opts.Fixed) != h.NumModules() {
		return partition.Metrics{}, 0, errors.New("fm: Fixed mask has wrong length")
	}
	e := newEngine(h, p)
	e.fixed = opts.Fixed
	filter := func(v int) bool {
		return e.sizes[e.side[v]] > 1
	}
	objective := ratioObjective(opts.UseWeights)
	passes := 0
	for pass := 0; pass < maxPasses; pass++ {
		passes++
		if !e.runPass(filter, objective) {
			break
		}
	}
	return partition.Evaluate(h, p), passes, nil
}
