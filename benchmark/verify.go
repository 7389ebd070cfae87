package main

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"igpart"
)

// The verifier re-derives every returned cut from the input netlist
// using only its pin lists, never the library's own evaluation, so a
// result that misreports its quality fails the run.

// verifyResult recomputes the cut nets, side sizes and ratio cut of the
// returned per-module sides (0 = U, 1 = W) on h and checks each against
// the reported value; the ratio cut must match bit for bit.
func verifyResult(h *igpart.Netlist, r *resultDoc) error {
	if len(r.Sides) != h.NumModules() {
		return fmt.Errorf("result has %d sides for %d modules", len(r.Sides), h.NumModules())
	}
	cut, nu, nw, err := recompute(h, r.Sides)
	if err != nil {
		return err
	}
	ratio := float64(cut) / (float64(nu) * float64(nw))
	if cut != r.CutNets || nu != r.SizeU || nw != r.SizeW || ratio != r.RatioCut {
		return fmt.Errorf("reported %d:%d cut=%d ratio=%v, recomputed %d:%d cut=%d ratio=%v",
			r.SizeU, r.SizeW, r.CutNets, r.RatioCut, nu, nw, cut, ratio)
	}
	return nil
}

// recompute counts the side sizes and the nets with pins on both sides.
func recompute(h *igpart.Netlist, sides []int) (cut, nu, nw int, err error) {
	for v, s := range sides {
		switch s {
		case 0:
			nu++
		case 1:
			nw++
		default:
			return 0, 0, 0, fmt.Errorf("module %d on side %d", v, s)
		}
	}
	if nu == 0 || nw == 0 {
		return 0, 0, 0, fmt.Errorf("improper bipartition %d:%d", nu, nw)
	}
	for e := 0; e < h.NumNets(); e++ {
		var seen [2]bool
		for _, v := range h.Pins(e) {
			seen[sides[v]] = true
		}
		if seen[0] && seen[1] {
			cut++
		}
	}
	return cut, nu, nw, nil
}

// sameResult checks that a cache hit returned exactly the original
// result.
func sameResult(hit, orig *resultDoc) error {
	if hit.CutNets != orig.CutNets || hit.SizeU != orig.SizeU || hit.SizeW != orig.SizeW ||
		hit.RatioCut != orig.RatioCut || !slices.Equal(hit.Sides, orig.Sides) {
		return fmt.Errorf("cached result %d:%d cut=%d ratio=%v differs from the original %d:%d cut=%d ratio=%v",
			hit.SizeU, hit.SizeW, hit.CutNets, hit.RatioCut, orig.SizeU, orig.SizeW, orig.CutNets, orig.RatioCut)
	}
	return nil
}

// verifyECO checks the provenance of an ECO delta result: it must be a
// warm start unless the delta exceeds the documented cold-fallback
// threshold (a quarter of the base nets).
func verifyECO(r *resultDoc, d igpart.NetlistDelta, baseNets int) error {
	coldFallback := 4*d.TouchedNets() > baseNets
	if r.Warm == coldFallback {
		return fmt.Errorf("ECO result warm=%v, want %v for %d touched of %d nets", r.Warm, !coldFallback, d.TouchedNets(), baseNets)
	}
	if r.TouchedNets != d.TouchedNets() {
		return fmt.Errorf("ECO result touched %d nets, the delta touches %d", r.TouchedNets, d.TouchedNets())
	}
	return nil
}

// parseAssign reads the output of `igpart -algo igmatch -assign`: the
// "igmatch: U:W cut=C ratio=R" line, then one "<module> <U|W>" line per
// module. It returns the result with sides filled from the assignment
// and the ratio cut recomputed from it, after checking the printed
// metrics against the recomputation.
func parseAssign(h *igpart.Netlist, out string) (*resultDoc, error) {
	index := make(map[string]int, h.NumModules())
	for v := 0; v < h.NumModules(); v++ {
		index[h.ModuleName(v)] = v
	}
	r := &resultDoc{Sides: make([]int, h.NumModules())}
	seen, printedRatio := 0, ""
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "igmatch: "); ok {
			if _, err := fmt.Sscanf(rest, "%d:%d cut=%d ratio=%s", &r.SizeU, &r.SizeW, &r.CutNets, &printedRatio); err != nil {
				return nil, fmt.Errorf("metrics line %q: %v", line, err)
			}
			continue
		}
		name, side, ok := strings.Cut(line, " ")
		v, known := index[name]
		if !ok || !known {
			continue
		}
		switch side {
		case "U":
		case "W":
			r.Sides[v] = 1
		default:
			return nil, fmt.Errorf("assignment line %q", line)
		}
		seen++
	}
	if seen != h.NumModules() || printedRatio == "" {
		return nil, fmt.Errorf("output assigns %d of %d modules (metrics line present: %v)", seen, h.NumModules(), printedRatio != "")
	}
	cut, nu, nw, err := recompute(h, r.Sides)
	if err != nil {
		return nil, err
	}
	ratio := float64(cut) / (float64(nu) * float64(nw))
	if cut != r.CutNets || nu != r.SizeU || nw != r.SizeW || strconv.FormatFloat(ratio, 'g', 4, 64) != printedRatio {
		return nil, fmt.Errorf("printed %d:%d cut=%d ratio=%s, recomputed %d:%d cut=%d ratio=%.4g",
			r.SizeU, r.SizeW, r.CutNets, printedRatio, nu, nw, cut, ratio)
	}
	r.RatioCut = ratio
	return r, nil
}
