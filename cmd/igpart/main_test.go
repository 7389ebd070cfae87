package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"igpart"
	"igpart/internal/engine"
)

// testNetlist writes a small generated circuit as .hgr and returns its
// path with the netlist as igpart reads it back.
func testNetlist(t *testing.T) (string, *igpart.Netlist) {
	t.Helper()
	cfg, _ := igpart.Benchmark("Prim1")
	h, err := igpart.Generate(cfg.Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "prim1.hgr")
	if err := igpart.Save(path, h); err != nil {
		t.Fatal(err)
	}
	if h, err = igpart.Load(path); err != nil {
		t.Fatal(err)
	}
	return path, h
}

// runCLI runs the command on args and returns its stdout.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("igpart %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// parsed is one run's printed result: the metrics line of the named
// algorithm and each module's printed side or part.
type parsed struct {
	metrics string
	assign  []string
}

func parse(t *testing.T, h *igpart.Netlist, name, out string) parsed {
	t.Helper()
	index := make(map[string]int, h.NumModules())
	for v := 0; v < h.NumModules(); v++ {
		index[h.ModuleName(v)] = v
	}
	p := parsed{assign: make([]string, h.NumModules())}
	seen := 0
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, name+": "); ok {
			p.metrics = rest
			continue
		}
		module, value, ok := strings.Cut(line, " ")
		if v, known := index[module]; ok && known {
			p.assign[v] = value
			seen++
		}
	}
	if p.metrics == "" || seen != h.NumModules() {
		t.Fatalf("%s: metrics line %q, %d of %d modules assigned in\n%s", name, p.metrics, seen, h.NumModules(), out)
	}
	return p
}

// bipartition reads printed U/W sides back into a bipartition.
func (p parsed) bipartition(t *testing.T) *igpart.Bipartition {
	t.Helper()
	b := igpart.NewBipartition(len(p.assign))
	for v, side := range p.assign {
		switch side {
		case "U":
		case "W":
			b.Set(v, igpart.W)
		default:
			t.Fatalf("module %d: side %q", v, side)
		}
	}
	return b
}

// parts reads printed part indices back.
func (p parsed) parts(t *testing.T) []int {
	t.Helper()
	part := make([]int, len(p.assign))
	for v, s := range p.assign {
		var err error
		if part[v], err = strconv.Atoi(s); err != nil {
			t.Fatalf("module %d: part %q", v, s)
		}
	}
	return part
}

// kwaySuffix is the tail of a k-way metrics line, recomputed from the
// part assignment.
func kwaySuffix(h *igpart.Netlist, part []int, k int) string {
	mw := igpart.EvaluateMultiway(h, part, k)
	return fmt.Sprintf("sizes=%v spanning=%d connectivity=%d ratio=%.5g",
		mw.PartSizesSorted(), mw.SpanningNets, mw.Connectivity, mw.RatioValue)
}

// TestEveryAlgorithmPrintsItsAssignment runs every -algo name and holds
// the printed metrics to the printed assignment: Evaluate for a
// bipartition, EvaluateMultiway for k parts.
func TestEveryAlgorithmPrintsItsAssignment(t *testing.T) {
	path, h := testNetlist(t)
	for _, e := range engine.Engines() {
		t.Run(e.Name, func(t *testing.T) {
			out := runCLI(t, "-in", path, "-algo", e.Name, "-k", "3", "-assign")
			p := parse(t, h, e.Name, out)
			if e.KWay {
				if want := kwaySuffix(h, p.parts(t), 3); !strings.HasSuffix(p.metrics, want) {
					t.Fatalf("metrics %q, assignment gives %q", p.metrics, want)
				}
				return
			}
			if want := igpart.Evaluate(h, p.bipartition(t)).String(); p.metrics != want {
				t.Fatalf("metrics %q, assignment gives %q", p.metrics, want)
			}
		})
	}
}

// TestIGMatchOutputFormat pins the igmatch lines that scripts read: the
// sweep line, the "igmatch: U:W cut=C ratio=R" metrics line and one
// "<module> <U|W>" line per module.
func TestIGMatchOutputFormat(t *testing.T) {
	path, h := testNetlist(t)
	out := runCLI(t, "-in", path, "-assign")
	var lambda2 float64
	var rank, nets, bound int
	if _, err := fmt.Sscanf(out, "lambda2=%g split=%d/%d matching-bound=%d\n", &lambda2, &rank, &nets, &bound); err != nil || nets != h.NumNets() {
		t.Fatalf("sweep line: %v in\n%s", err, out)
	}
	p := parse(t, h, engine.IGMatch, out)
	var su, sw, cut int
	var ratio string
	if _, err := fmt.Sscanf(p.metrics, "%d:%d cut=%d ratio=%s", &su, &sw, &cut, &ratio); err != nil {
		t.Fatalf("metrics line %q: %v", p.metrics, err)
	}
	met := igpart.Evaluate(h, p.bipartition(t))
	if su != met.SizeU || sw != met.SizeW || cut != met.CutNets || ratio != strconv.FormatFloat(met.RatioCut, 'g', 4, 64) {
		t.Fatalf("printed %d:%d cut=%d ratio=%s, assignment gives %v", su, sw, cut, ratio, met)
	}
	if cut > bound {
		t.Fatalf("cut %d exceeds the matching bound %d", cut, bound)
	}
}

// TestFixPins pins modules through -fix: the k-way engines, multiway
// included, keep the pins through every bisection, and a bipartition
// gets them patched in by FM.
func TestFixPins(t *testing.T) {
	path, h := testNetlist(t)
	writeFix := func(pins map[int]int) string {
		var b strings.Builder
		for v := 0; v < h.NumModules(); v++ {
			if p, ok := pins[v]; ok {
				fmt.Fprintln(&b, p)
			} else {
				fmt.Fprintln(&b, -1)
			}
		}
		fix := filepath.Join(t.TempDir(), "pins.fix")
		if err := os.WriteFile(fix, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return fix
	}
	for _, name := range []string{engine.Multiway, engine.KWay} {
		// Pin m0 away from the part it lands in without pins.
		free := parse(t, h, name, runCLI(t, "-in", path, "-algo", name, "-k", "2", "-eps", "0.5", "-assign")).parts(t)
		fix := writeFix(map[int]int{0: 1 - free[0]})
		p := parse(t, h, name, runCLI(t, "-in", path, "-algo", name, "-k", "2", "-eps", "0.5", "-fix", fix, "-assign"))
		part := p.parts(t)
		if part[0] != 1-free[0] {
			t.Errorf("%s: m0 in part %d, pinned to %d", name, part[0], 1-free[0])
		}
		if want := kwaySuffix(h, part, 2); !strings.HasSuffix(p.metrics, want) {
			t.Errorf("%s: metrics %q, assignment gives %q", name, p.metrics, want)
		}
	}
	fix := writeFix(map[int]int{0: 0, 1: 1})
	out := runCLI(t, "-in", path, "-fix", fix, "-assign")
	if !strings.Contains(out, "applied 2 pinned modules from "+fix) {
		t.Fatalf("no pin line in\n%s", out)
	}
	p := parse(t, h, engine.IGMatch, out)
	b := p.bipartition(t)
	if b.Side(0) != igpart.U || b.Side(1) != igpart.W {
		t.Errorf("igmatch: m0 on %v, m1 on %v, pinned to U and W", b.Side(0), b.Side(1))
	}
	if want := igpart.Evaluate(h, b).String(); p.metrics != want {
		t.Errorf("igmatch: metrics %q, assignment gives %q", p.metrics, want)
	}
}

// TestRejects checks that an unknown algorithm and a missing input fail.
func TestRejects(t *testing.T) {
	path, _ := testNetlist(t)
	for _, args := range [][]string{
		{"-in", path, "-algo", "anneal"},
		{"-algo", "igmatch"},
		{"-in", path, "-algo", "kway", "-k", "1"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("igpart %s: accepted", strings.Join(args, " "))
		}
	}
}
