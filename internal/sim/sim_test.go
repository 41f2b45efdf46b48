package sim

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"lacret/internal/netlist"
	"lacret/internal/retime"
)

// xorPipe: pi -> x(NOT) -> po with one register on x->po.
func xorPipe() (*retime.Graph, []Op) {
	g := retime.NewGraph()
	pi := g.AddVertex("pi", retime.KindPort, 0)
	x := g.AddVertex("x", retime.KindUnit, 1)
	po := g.AddVertex("po", retime.KindPort, 0)
	g.AddEdge(pi, x, 0)
	g.AddEdge(x, po, 1)
	return g, []Op{OpInput, OpNot, OpBuf}
}

func TestMachineDelaysThroughRegister(t *testing.T) {
	g, ops := xorPipe()
	m, err := NewMachine(g, ops)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle 0: input 0b01; register initially 0 -> po sees 0.
	out, err := m.Step(map[int]uint64{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out[2] != 0 {
		t.Fatalf("cycle 0 output %x", out[2])
	}
	// Cycle 1: po sees NOT(1) from cycle 0.
	out, _ = m.Step(map[int]uint64{0: 0})
	if out[2] != ^uint64(1) {
		t.Fatalf("cycle 1 output %x, want %x", out[2], ^uint64(1))
	}
	// Cycle 2: po sees NOT(0).
	out, _ = m.Step(map[int]uint64{0: 0})
	if out[2] != ^uint64(0) {
		t.Fatalf("cycle 2 output %x", out[2])
	}
}

func TestMachineGateFunctions(t *testing.T) {
	// Two inputs into each binary gate; check truth tables on lanes.
	cases := []struct {
		op   Op
		a, b uint64
		want uint64
	}{
		{OpAnd, 0b1100, 0b1010, 0b1000},
		{OpNand, 0b1100, 0b1010, ^uint64(0b1000)},
		{OpOr, 0b1100, 0b1010, 0b1110},
		{OpNor, 0b1100, 0b1010, ^uint64(0b1110)},
		{OpXor, 0b1100, 0b1010, 0b0110},
		{OpXnor, 0b1100, 0b1010, ^uint64(0b0110)},
	}
	for _, c := range cases {
		g := retime.NewGraph()
		a := g.AddVertex("a", retime.KindPort, 0)
		b := g.AddVertex("b", retime.KindPort, 0)
		u := g.AddVertex("u", retime.KindUnit, 1)
		po := g.AddVertex("po", retime.KindPort, 0)
		g.AddEdge(a, u, 0)
		g.AddEdge(b, u, 0)
		g.AddEdge(u, po, 0)
		m, err := NewMachine(g, []Op{OpInput, OpInput, c.op, OpBuf})
		if err != nil {
			t.Fatal(err)
		}
		out, err := m.Step(map[int]uint64{a: c.a, b: c.b})
		if err != nil {
			t.Fatal(err)
		}
		if out[po] != c.want {
			t.Fatalf("op %d: got %x, want %x", c.op, out[po], c.want)
		}
	}
}

func TestOpFromString(t *testing.T) {
	for s, want := range map[string]Op{
		"AND": OpAnd, "NAND": OpNand, "OR": OpOr, "NOR": OpNor,
		"XOR": OpXor, "XNOR": OpXnor, "NOT": OpNot, "BUF": OpBuf, "BUFF": OpBuf, "": OpBuf,
	} {
		got, err := OpFromString(s)
		if err != nil || got != want {
			t.Fatalf("OpFromString(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := OpFromString("MUX"); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestMachineValidation(t *testing.T) {
	g, ops := xorPipe()
	if _, err := NewMachine(g, ops[:1]); err == nil {
		t.Fatal("short ops accepted")
	}
	if _, err := NewMachine(g, []Op{OpInput, OpInput, OpBuf}); err == nil {
		t.Fatal("input with fanin accepted")
	}
	m, _ := NewMachine(g, ops)
	if _, err := m.Step(map[int]uint64{}); err == nil {
		t.Fatal("missing input accepted")
	}
	if err := m.SetFIFO(99, nil); err == nil {
		t.Fatal("bad edge accepted")
	}
	if err := m.SetFIFO(1, []uint64{1, 2}); err == nil {
		t.Fatal("bad FIFO length accepted")
	}
}

func TestEquivalenceSimplePipeline(t *testing.T) {
	// pi -> a -> b -> po with two registers bunched; balancing retiming
	// r(a) = -1 moves one forward.
	g := retime.NewGraph()
	pi := g.AddVertex("pi", retime.KindPort, 0)
	a := g.AddVertex("a", retime.KindUnit, 1)
	b := g.AddVertex("b", retime.KindUnit, 1)
	po := g.AddVertex("po", retime.KindPort, 0)
	g.AddEdge(pi, a, 2)
	g.AddEdge(a, b, 0)
	g.AddEdge(b, po, 0)
	ops := []Op{OpInput, OpNot, OpNot, OpBuf}
	if err := CheckRetimingEquivalence(g, ops, []int{0, -1, 0, 0}, 48, 7); err != nil {
		t.Fatal(err)
	}
	if err := CheckRetimingEquivalence(g, ops, []int{0, -1, -1, 0}, 48, 7); err != nil {
		t.Fatal(err)
	}
}

func TestEquivalenceDetectsIllegalLabels(t *testing.T) {
	g, ops := xorPipe()
	// r that would drive a weight negative must be rejected.
	if err := CheckRetimingEquivalence(g, ops, []int{0, -2, 0}, 16, 1); err == nil ||
		!strings.Contains(err.Error(), "not applicable") {
		t.Fatalf("err = %v", err)
	}
}

func TestMachineDetectsFunctionalDifference(t *testing.T) {
	// Sanity for the detector itself: two machines differing in one gate
	// function produce different outputs under random stimulus.
	build := func(op Op) *Machine {
		g := retime.NewGraph()
		a := g.AddVertex("a", retime.KindPort, 0)
		b := g.AddVertex("b", retime.KindPort, 0)
		u := g.AddVertex("u", retime.KindUnit, 1)
		po := g.AddVertex("po", retime.KindPort, 0)
		g.AddEdge(a, u, 0)
		g.AddEdge(b, u, 0)
		g.AddEdge(u, po, 0)
		m, err := NewMachine(g, []Op{OpInput, OpInput, op, OpBuf})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1, m2 := build(OpAnd), build(OpOr)
	rng := rand.New(rand.NewSource(3))
	differs := false
	for i := 0; i < 16; i++ {
		in := map[int]uint64{0: rng.Uint64(), 1: rng.Uint64()}
		o1, _ := m1.Step(in)
		o2, _ := m2.Step(in)
		if o1[3] != o2[3] {
			differs = true
		}
	}
	if !differs {
		t.Fatal("AND and OR machines agreed on random stimulus")
	}
}

// The headline property test: min-area and min-period retimings of random
// sequential circuits preserve behavior exactly.
func TestQuickRetimingPreservesBehavior(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	opsPool := []Op{OpAnd, OpNand, OpOr, OpNor, OpXor, OpXnor}
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(6)
		g := retime.NewGraph()
		ops := make([]Op, 0, n+2)
		pi := g.AddVertex("pi", retime.KindPort, 0)
		ops = append(ops, OpInput)
		for i := 0; i < n; i++ {
			g.AddVertex("u", retime.KindUnit, float64(1+rng.Intn(3)))
			ops = append(ops, opsPool[rng.Intn(len(opsPool))])
		}
		po := g.AddVertex("po", retime.KindPort, 0)
		ops = append(ops, OpBuf)
		// Random structure: chain + extra edges; backward edges carry regs.
		g.AddEdge(pi, 1, rng.Intn(2))
		for i := 1; i < n; i++ {
			g.AddEdge(i, i+1, rng.Intn(2))
		}
		g.AddEdge(n, po, rng.Intn(2))
		for k := 0; k < n; k++ {
			a := 1 + rng.Intn(n)
			b := 1 + rng.Intn(n)
			if a == b {
				continue
			}
			w := rng.Intn(2)
			if b <= a && w == 0 {
				w = 1
			}
			g.AddEdge(a, b, w)
		}
		if g.Validate() != nil {
			continue
		}
		// Min-period retiming.
		_, r, _, err := g.MinPeriod(context.Background(), 1e-4)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := CheckRetimingEquivalence(g, ops, r, 48, int64(trial)); err != nil {
			t.Fatalf("trial %d (min-period): %v", trial, err)
		}
		// Min-area retiming at a loose period.
		p, _ := g.Period()
		ma, err := g.MinArea(p * 2)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := CheckRetimingEquivalence(g, ops, ma.R, 48, int64(trial)); err != nil {
			t.Fatalf("trial %d (min-area): %v", trial, err)
		}
	}
}

func TestOpsFromGraph(t *testing.T) {
	nl := netlist.New("ops")
	a, _ := nl.AddInput("a")
	g1, _ := nl.AddGate("g1", "NAND", a, a)
	f, _ := nl.AddDFF("f", g1)
	g2, _ := nl.AddGate("g2", "NOT", f)
	nl.MarkOutput(g2)
	col, err := nl.Collapse()
	if err != nil {
		t.Fatal(err)
	}
	rg, vmap, err := retime.FromCollapsed(nl, col)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := OpsFromGraph(rg, nl)
	if err != nil {
		t.Fatal(err)
	}
	if ops[vmap[a]] != OpInput || ops[vmap[g1]] != OpNand || ops[vmap[g2]] != OpNot {
		t.Fatalf("ops = %v", ops)
	}
	// The PO pin (last vertex) must be a buffer.
	if ops[rg.N()-1] != OpBuf {
		t.Fatalf("po op %v", ops[rg.N()-1])
	}
	// And the whole thing simulates: NAND(a,a) = NOT a, g2 = NOT(reg).
	m, err := NewMachine(rg, ops)
	if err != nil {
		t.Fatal(err)
	}
	m.Step(map[int]uint64{vmap[a]: 0xF0})
	out, _ := m.Step(map[int]uint64{vmap[a]: 0})
	if out[rg.N()-1] != ^(^uint64(0xF0)) { // NOT(NAND(a,a)) = a, delayed one cycle
		t.Fatalf("out %x", out[rg.N()-1])
	}
}

func TestOpsFromGraphUnsupported(t *testing.T) {
	nl := netlist.New("bad")
	a, _ := nl.AddInput("a")
	g1, _ := nl.AddGate("g1", "AND", a)
	nl.MarkOutput(g1)
	nl.Node(g1).Op = "MUX"
	col, _ := nl.Collapse()
	rg, _, err := retime.FromCollapsed(nl, col)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpsFromGraph(rg, nl); err == nil {
		t.Fatal("unsupported op accepted")
	}
}
