// The direct spectral-k engine: Riolo–Newman vector partitioning
// ("First-principles multiway spectral partitioning") adapted to the
// module Laplacian. Each module v gets a k-dimensional vertex vector
//
//	r_v[i] = sqrt(λmax − λ_i) · u_i(v)
//
// from the first k eigenpairs (λ_i, u_i) of the Laplacian, weighted by
// headroom below the Gershgorin spectral bound so the flattest directions
// dominate. Maximizing Σ_p |R_p|² over part vector sums R_p = Σ_{v∈p} r_v
// is then equivalent to minimizing the clique-model cut, and the
// assignment reduces to greedy vector packing: seed parts with the
// longest vectors, add each module to the part whose sum it extends most,
// and polish with single-module moves — all under the part cap, the
// fixed-module pins, and k-non-empty repair, so the balanced contract
// holds exactly even though the objective is heuristic.
package multiway

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"igpart/internal/eigen"
	"igpart/internal/hypergraph"
	"igpart/internal/netmodel"
	"igpart/internal/obs"
)

// spectralK runs the vector-partitioning engine for Options.Spectral.
func spectralK(h *hypergraph.Hypergraph, opts Options, partCap int) (Result, error) {
	n := h.NumModules()
	k := opts.K
	rec := obs.OrNop(opts.Core.Rec)
	sp := rec.StartSpan("spectral-k")
	defer sp.End()

	q := netmodel.ModuleLaplacian(h, 0)
	eo := opts.Core.Eigen
	eo.Rec, eo.Ctx, eo.Fault = sp, opts.Core.Ctx, opts.Core.Fault
	vals, vecs, err := eigen.SmallestK(q, k, eo)
	if err != nil {
		return Result{}, fmt.Errorf("multiway: spectral-k eigensolve failed: %w", err)
	}
	sp.Count("eigenpairs", int64(k))

	lmax := eigen.GershgorinUpper(q)
	r := make([]float64, n*k)
	norm2 := make([]float64, n)
	for i := 0; i < k; i++ {
		w := lmax - vals[i]
		if w < 0 {
			w = 0
		}
		w = math.Sqrt(w)
		for v := 0; v < n; v++ {
			x := w * vecs[i][v]
			r[v*k+i] = x
			norm2[v] += x * x
		}
	}
	assign, err := vectorPartition(n, k, partCap, opts, r, norm2)
	if err != nil {
		return Result{}, err
	}
	res := Evaluate(h, assign, k)
	res.Cap = partCap
	return res, nil
}

// dotRV is the inner product of part p's vector sum with module v's
// vertex vector.
func dotRV(R []float64, p int, r []float64, v, k int) float64 {
	s := 0.0
	for i := 0; i < k; i++ {
		s += R[p*k+i] * r[v*k+i]
	}
	return s
}

// addRV adds (sign=+1) or removes (sign=−1) module v's vector from part
// p's sum.
func addRV(R []float64, p int, r []float64, v, k int, sign float64) {
	for i := 0; i < k; i++ {
		R[p*k+i] += sign * r[v*k+i]
	}
}

// dotVV is the inner product of two modules' vertex vectors.
func dotVV(r []float64, v, w, k int) float64 {
	s := 0.0
	for i := 0; i < k; i++ {
		s += r[v*k+i] * r[w*k+i]
	}
	return s
}

// vectorPartition performs the capped, pin-respecting greedy assignment
// plus local refinement. Moving v from part s to part p changes the
// objective Σ_q |R_q|² by 2(⟨R_p,r_v⟩ − ⟨R_s,r_v⟩) + 2|r_v|² (with v
// counted in R_s and not in R_p); insertions and steals are special
// cases. Every tie breaks on the lowest part/module index, making the
// result deterministic.
func vectorPartition(n, k, partCap int, opts Options, r, norm2 []float64) ([]int, error) {
	assign := make([]int, n)
	size := make([]int, k)
	R := make([]float64, k*k)
	free := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if opts.Fixed != nil && opts.Fixed[v] >= 0 {
			p := opts.Fixed[v]
			assign[v] = p
			size[p]++
			addRV(R, p, r, v, k, +1)
		} else {
			assign[v] = -1
			free = append(free, v)
		}
	}

	// Farthest-point seeding: give every pin-less part one anchor module
	// before the greedy fill. Without it the first insertions all land on
	// part 0 (every empty part scores the same) and structurally distinct
	// modules pile together. The pairwise distance cancels the constant
	// first eigenvector, so anchors spread across the *structural*
	// dimensions of the embedding.
	seeded := make([]bool, n)
	var anchors []int
	for p := 0; p < k; p++ {
		if size[p] > 0 {
			continue
		}
		best, bestScore := -1, math.Inf(-1)
		for _, v := range free {
			if seeded[v] {
				continue
			}
			score := norm2[v]
			if len(anchors) > 0 {
				score = math.Inf(1)
				for _, s := range anchors {
					d := norm2[v] + norm2[s] - 2*dotVV(r, v, s, k)
					if d < score {
						score = d
					}
				}
			}
			if score > bestScore {
				best, bestScore = v, score
			}
		}
		if best < 0 {
			// Unreachable after CheckContract: there are at least as many
			// free modules as pin-less parts.
			return nil, fmt.Errorf("multiway: no free module available to seed part %d", p)
		}
		seeded[best] = true
		anchors = append(anchors, best)
		assign[best] = p
		size[p]++
		addRV(R, p, r, best, k, +1)
	}

	// Greedy insertion, longest vectors first: they anchor the part sums
	// the later, shorter vectors align against.
	order := append([]int(nil), free...)
	sort.SliceStable(order, func(a, b int) bool {
		va, vb := order[a], order[b]
		if norm2[va] != norm2[vb] {
			return norm2[va] > norm2[vb]
		}
		return va < vb
	})
	for _, v := range order {
		if seeded[v] {
			continue
		}
		best, bestScore := -1, 0.0
		for p := 0; p < k; p++ {
			if size[p] >= partCap {
				continue
			}
			s := 2*dotRV(R, p, r, v, k) + norm2[v]
			if best < 0 || s > bestScore {
				best, bestScore = p, s
			}
		}
		if best < 0 {
			// Unreachable: Σ caps = k·cap ≥ n by PartCap's construction.
			return nil, errors.New("multiway: spectral-k ran out of part capacity")
		}
		assign[v] = best
		size[best]++
		addRV(R, best, r, v, k, +1)
	}

	// The contract demands k non-empty parts: populate any empty part
	// with the free module whose move costs the least objective.
	for p := 0; p < k; p++ {
		if size[p] > 0 {
			continue
		}
		best, bestDelta := -1, math.Inf(-1)
		for _, v := range free {
			s := assign[v]
			if size[s] < 2 {
				continue
			}
			delta := 2*norm2[v] - 2*dotRV(R, s, r, v, k)
			if delta > bestDelta {
				best, bestDelta = v, delta
			}
		}
		if best < 0 {
			// Unreachable after CheckContract: there are at least as
			// many free modules as pin-less parts.
			return nil, fmt.Errorf("multiway: no free module available to populate part %d", p)
		}
		s := assign[best]
		addRV(R, s, r, best, k, -1)
		size[s]--
		assign[best] = p
		size[p]++
		addRV(R, p, r, best, k, +1)
	}

	// Local refinement: bounded passes of strictly-improving single
	// moves that respect the caps and never empty a part.
	for pass := 0; pass < 8; pass++ {
		if err := ctxErr(opts.Core.Ctx); err != nil {
			return nil, fmt.Errorf("multiway: cancelled during spectral-k refinement: %w", err)
		}
		moved := false
		for _, v := range free {
			s := assign[v]
			if size[s] <= 1 {
				continue
			}
			ds := dotRV(R, s, r, v, k)
			best, bestDelta := -1, 1e-9
			for p := 0; p < k; p++ {
				if p == s || size[p] >= partCap {
					continue
				}
				delta := 2*(dotRV(R, p, r, v, k)-ds) + 2*norm2[v]
				if delta > bestDelta {
					best, bestDelta = p, delta
				}
			}
			if best >= 0 {
				addRV(R, s, r, v, k, -1)
				size[s]--
				assign[v] = best
				size[best]++
				addRV(R, best, r, v, k, +1)
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	return assign, nil
}
