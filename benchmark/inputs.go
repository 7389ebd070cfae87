package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"

	"igpart"
)

// mix derives a seed from the workload seed and an input's position
// (splitmix64 steps), so every input is a pure function of both.
func mix(parts ...int64) int64 {
	x := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		x ^= uint64(p)
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 1)
}

// preset returns a generator preset with its seed replaced and its size
// scaled by f.
func preset(name string, seed int64, f float64) igpart.GenConfig {
	cfg, ok := igpart.Benchmark(name)
	if !ok {
		panic("unknown netgen preset " + name) // the names are constants of this file's callers
	}
	if f != 1 {
		cfg = cfg.Scaled(f)
	}
	cfg.Seed = seed
	return cfg
}

// netlist is one generated input: the bytes a request carries and the
// netlist parsed back from exactly those bytes, which results are
// verified against.
type netlist struct {
	label string
	h     *igpart.Netlist
	// Bookshelf inputs: the inline text and the POST /v1/jobs body.
	nodes, nets string
	body        []byte
	// .hgr inputs: the file the CLI reads.
	path string
}

// genBookshelf generates a netlist and encodes it as an igmatch job.
func genBookshelf(cfg igpart.GenConfig, label string) (*netlist, error) {
	g, err := igpart.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", label, err)
	}
	return bookshelf(g, label)
}

// bookshelf encodes g as an igmatch job with an inline Bookshelf pair.
func bookshelf(g *igpart.Netlist, label string) (*netlist, error) {
	var nodes, nets bytes.Buffer
	if err := igpart.WriteBookshelf(&nodes, &nets, g); err != nil {
		return nil, err
	}
	n := &netlist{label: label, nodes: nodes.String(), nets: nets.String()}
	var err error
	if n.h, err = igpart.ReadBookshelf(strings.NewReader(n.nodes), strings.NewReader(n.nets)); err != nil {
		return nil, fmt.Errorf("reparse %s: %w", label, err)
	}
	var b submitBody
	b.Bookshelf.Nodes, b.Bookshelf.Nets, b.Algo = n.nodes, n.nets, "igmatch"
	if n.body, err = json.Marshal(b); err != nil {
		return nil, err
	}
	return n, nil
}

// genHGR generates a netlist into dir as an .hgr file.
func genHGR(cfg igpart.GenConfig, dir, label string) (*netlist, error) {
	g, err := igpart.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", label, err)
	}
	n := &netlist{label: label, path: filepath.Join(dir, label+".hgr")}
	if err := igpart.Save(n.path, g); err != nil {
		return nil, err
	}
	if n.h, err = igpart.Load(n.path); err != nil {
		return nil, fmt.Errorf("reparse %s: %w", label, err)
	}
	return n, nil
}

// genDelta builds a seeded ECO against h: about 1% of the nets removed
// and three pins added to surviving nets.
func genDelta(h *igpart.Netlist, seed int64) igpart.NetlistDelta {
	rng := rand.New(rand.NewSource(seed))
	m, n := h.NumNets(), h.NumModules()
	removed := make(map[int]bool)
	for want := max(1, m/100); len(removed) < want; {
		removed[rng.Intn(m)] = true
	}
	var d igpart.NetlistDelta
	for e := range removed {
		d.RemoveNets = append(d.RemoveNets, e)
	}
	slices.Sort(d.RemoveNets)
	added := make(map[igpart.DeltaPin]bool)
	for try := 0; len(d.AddPins) < 3 && try < 1000; try++ {
		p := igpart.DeltaPin{Net: rng.Intn(m), Module: rng.Intn(n)}
		if removed[p.Net] || added[p] || slices.Contains(h.Pins(p.Net), p.Module) {
			continue
		}
		added[p] = true
		d.AddPins = append(d.AddPins, p)
	}
	return d
}
