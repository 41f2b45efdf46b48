package retime

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"lacret/internal/netlist"
)

// ring builds a k-vertex cycle of unit delay d with regs registers on the
// last edge.
func ring(k int, d float64, regs int) *Graph {
	rg := NewGraph()
	for i := 0; i < k; i++ {
		rg.AddVertex("u", KindUnit, d)
	}
	for i := 0; i < k-1; i++ {
		rg.AddEdge(i, i+1, 0)
	}
	rg.AddEdge(k-1, 0, regs)
	return rg
}

// pipeline builds PI -> u1 -> u2 -> ... -> uk -> PO with the given delays
// and edge weights (len(weights) == k+1).
func pipeline(delays []float64, weights []int) *Graph {
	rg := NewGraph()
	pi := rg.AddVertex("pi", KindPort, 0)
	prev := pi
	for i, d := range delays {
		u := rg.AddVertex("u", KindUnit, d)
		rg.AddEdge(prev, u, weights[i])
		prev = u
	}
	po := rg.AddVertex("po", KindPort, 0)
	rg.AddEdge(prev, po, weights[len(weights)-1])
	return rg
}

func TestGraphBasics(t *testing.T) {
	rg := NewGraph()
	a := rg.AddVertex("a", KindUnit, 2)
	b := rg.AddVertex("b", KindWire, 1)
	p := rg.AddVertex("p", KindPort, 0)
	e := rg.AddEdge(a, b, 1)
	rg.AddEdge(b, p, 0)
	if rg.N() != 3 || rg.M() != 2 {
		t.Fatalf("N=%d M=%d", rg.N(), rg.M())
	}
	if rg.Delay(a) != 2 || rg.Kind(b) != KindWire || rg.Name(p) != "p" {
		t.Fatal("accessors wrong")
	}
	if !rg.Pinned(p) || rg.Pinned(a) {
		t.Fatal("pinning wrong")
	}
	if f, to, w := rg.Edge(e); f != a || to != b || w != 1 {
		t.Fatalf("edge = (%d,%d,%d)", f, to, w)
	}
	rg.SetEdgeWeight(e, 3)
	if rg.EdgeWeight(e) != 3 {
		t.Fatal("SetEdgeWeight failed")
	}
	if rg.TotalRegisters() != 3 {
		t.Fatalf("total = %d", rg.TotalRegisters())
	}
	if got := rg.RegistersPerEdgeTail(); got[a] != 3 || got[b] != 0 {
		t.Fatalf("tails = %v", got)
	}
	if KindUnit.String() != "unit" || KindWire.String() != "wire" || KindPort.String() != "port" {
		t.Fatal("kind strings")
	}
}

func TestValidateDetectsCombinationalCycle(t *testing.T) {
	rg := ring(3, 1, 1)
	if err := rg.Validate(); err != nil {
		t.Fatal(err)
	}
	rg2 := ring(3, 1, 0) // zero-weight cycle
	if err := rg2.Validate(); err == nil {
		t.Fatal("combinational cycle accepted")
	}
}

func TestArrivalsAndPeriod(t *testing.T) {
	// pi -> a(1) -> b(2) -> po, one register between a and b.
	rg := pipeline([]float64{1, 2}, []int{0, 1, 0})
	arr, err := rg.Arrivals()
	if err != nil {
		t.Fatal(err)
	}
	// arr: pi=0, a=1, b=2 (register resets), po=2.
	want := []float64{0, 1, 2, 2}
	for i, w := range want {
		if math.Abs(arr[i]-w) > 1e-12 {
			t.Fatalf("arr[%d]=%g, want %g (all %v)", i, arr[i], w, arr)
		}
	}
	p, err := rg.Period()
	if err != nil {
		t.Fatal(err)
	}
	if p != 2 {
		t.Fatalf("period=%g", p)
	}
}

func TestApplyAndConservation(t *testing.T) {
	rg := ring(4, 1, 2)
	r := []int{0, 1, 1, 1} // move one register around the ring
	out, err := rg.Apply(r)
	if err != nil {
		t.Fatal(err)
	}
	// Total register count around any cycle is invariant.
	if out.TotalRegisters() != rg.TotalRegisters() {
		t.Fatalf("cycle register count changed: %d -> %d", rg.TotalRegisters(), out.TotalRegisters())
	}
}

func TestApplyRejectsNegative(t *testing.T) {
	rg := pipeline([]float64{1}, []int{0, 0})
	if _, err := rg.Apply([]int{0, 1, 0}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestApplyRejectsPinnedNonzero(t *testing.T) {
	rg := pipeline([]float64{1}, []int{1, 1})
	if _, err := rg.Apply([]int{1, 0, 0}); err == nil || !strings.Contains(err.Error(), "pinned") {
		t.Fatalf("err=%v", err)
	}
}

func TestApplyLengthMismatch(t *testing.T) {
	rg := ring(3, 1, 1)
	if _, err := rg.Apply([]int{0}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestCloneIndependent(t *testing.T) {
	rg := ring(3, 1, 1)
	c := rg.Clone()
	c.SetEdgeWeight(0, 5)
	c.SetPinned(0, true)
	if rg.EdgeWeight(0) == 5 || rg.Pinned(0) {
		t.Fatal("clone shares state")
	}
}

func TestWDMatricesRing(t *testing.T) {
	rg := ring(3, 2, 1) // 0->1->2->0, reg on last edge
	wd := oracleWD(rg)
	// W[0][2] = 0 (path 0->1->2), D = 6.
	if wd.W[0][2] != 0 || wd.D[0][2] != 6 {
		t.Fatalf("W=%d D=%g", wd.W[0][2], wd.D[0][2])
	}
	// W[2][1] = 1 (2->0->1), D = 6.
	if wd.W[2][1] != 1 || wd.D[2][1] != 6 {
		t.Fatalf("W=%d D=%g", wd.W[2][1], wd.D[2][1])
	}
	if wd.MaxD() != 6 {
		t.Fatalf("MaxD=%g", wd.MaxD())
	}
}

func TestMinPeriodRing(t *testing.T) {
	// Cycle of 3 unit-delay-2 vertices. With k registers the best period is
	// the largest chunk of the 6ns cycle between consecutive registers.
	cases := []struct {
		regs int
		want float64
	}{
		{1, 6}, {2, 4}, {3, 2},
	}
	for _, c := range cases {
		rg := ring(3, 2, c.regs)
		T, r, _, err := rg.MinPeriod(context.Background(), 1e-6)
		if err != nil {
			t.Fatalf("regs=%d: %v", c.regs, err)
		}
		if math.Abs(T-c.want) > 1e-3 {
			t.Fatalf("regs=%d: T=%g, want %g", c.regs, T, c.want)
		}
		if err := rg.CheckFeasible(r, c.want+1e-9); err != nil {
			t.Fatalf("regs=%d: %v", c.regs, err)
		}
	}
}

func TestMinPeriodPipelineBalancing(t *testing.T) {
	// pi -> a(1) -> b(1) -> po with both registers bunched on pi->a.
	// Balanced placement achieves period 1.
	rg := pipeline([]float64{1, 1}, []int{2, 0, 0})
	p0, _ := rg.Period()
	if p0 != 2 {
		t.Fatalf("initial period %g", p0)
	}
	T, r, _, err := rg.MinPeriod(context.Background(), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(T-1) > 1e-3 {
		t.Fatalf("T=%g, want 1", T)
	}
	// The balancing solution needs a negative internal label (register
	// moved forward across a); make sure we found one.
	neg := false
	for _, x := range r {
		if x < 0 {
			neg = true
		}
	}
	if !neg {
		t.Fatalf("expected negative label in %v", r)
	}
}

func TestMinPeriodCombinationalPathLimits(t *testing.T) {
	// pi -> a(1) -> b(1) -> po with no registers anywhere: ports pinned, so
	// no register can be inserted; min period stays 2.
	rg := pipeline([]float64{1, 1}, []int{0, 0, 0})
	T, _, _, err := rg.MinPeriod(context.Background(), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(T-2) > 1e-3 {
		t.Fatalf("T=%g, want 2 (I/O path is unbreakable)", T)
	}
}

func TestFeasiblePeriodInfeasible(t *testing.T) {
	rg := pipeline([]float64{1, 1}, []int{0, 0, 0})
	feasible := func(T float64) ([]int, bool) {
		cs, err := rg.BuildConstraints(context.Background(), T)
		if err != nil {
			t.Fatal(err)
		}
		return cs.Feasible(rg)
	}
	if _, ok := feasible(1.5); ok {
		t.Fatal("period 1.5 should be infeasible (comb path of 2)")
	}
	if r, ok := feasible(2); !ok {
		t.Fatal("period 2 should be feasible")
	} else if err := rg.CheckFeasible(r, 2); err != nil {
		t.Fatal(err)
	}
}

func TestMinAreaDiamondSharesRegisters(t *testing.T) {
	// pi -> a -> {b, c} -> d -> po; one register on each of b->d and c->d.
	// Min-area retiming can replace both with a single register on d->po.
	rg := NewGraph()
	pi := rg.AddVertex("pi", KindPort, 0)
	a := rg.AddVertex("a", KindUnit, 1)
	b := rg.AddVertex("b", KindUnit, 1)
	c := rg.AddVertex("c", KindUnit, 1)
	d := rg.AddVertex("d", KindUnit, 1)
	po := rg.AddVertex("po", KindPort, 0)
	rg.AddEdge(pi, a, 0)
	rg.AddEdge(a, b, 0)
	rg.AddEdge(a, c, 0)
	rg.AddEdge(b, d, 1)
	rg.AddEdge(c, d, 1)
	rg.AddEdge(d, po, 0)
	res, err := rg.MinArea(100) // loose period: pure area minimization
	if err != nil {
		t.Fatal(err)
	}
	if res.Registers != 1 {
		t.Fatalf("registers=%d, want 1 (labels %v)", res.Registers, res.R)
	}
	if err := rg.CheckFeasible(res.R, 100); err != nil {
		t.Fatal(err)
	}
}

func TestMinAreaRespectsPeriod(t *testing.T) {
	// Same diamond, but a tight period must keep registers where needed.
	rg := NewGraph()
	pi := rg.AddVertex("pi", KindPort, 0)
	a := rg.AddVertex("a", KindUnit, 1)
	b := rg.AddVertex("b", KindUnit, 1)
	d := rg.AddVertex("d", KindUnit, 1)
	po := rg.AddVertex("po", KindPort, 0)
	rg.AddEdge(pi, a, 0)
	rg.AddEdge(a, b, 0)
	rg.AddEdge(b, d, 1)
	rg.AddEdge(d, po, 1)
	// Period 2: path a..b (delay 2) is fine; moving the register off b->d
	// would create a 3-delay path pi..d. So both registers must stay
	// distinct: min registers at T=2 is 2.
	res, err := rg.MinArea(2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Registers != 2 {
		t.Fatalf("registers=%d, want 2", res.Registers)
	}
	out, err := rg.Apply(res.R)
	if err != nil {
		t.Fatal(err)
	}
	ap, _ := out.Period()
	if ap > 2+1e-9 {
		t.Fatalf("retimed period %g", ap)
	}
}

func TestMinAreaInfeasiblePeriod(t *testing.T) {
	rg := pipeline([]float64{1, 1}, []int{0, 0, 0})
	if _, err := rg.MinArea(1.5); err == nil {
		t.Fatal("infeasible period accepted")
	}
}

func TestMinAreaWeightedMovesRegisters(t *testing.T) {
	// pi -> a(1) -> b(1) -> po with one register that may sit on any of the
	// two internal positions (a->b or b->po; period 100 is loose, but it
	// cannot cross the ports). Weighting should steer its location.
	build := func() *Graph { return pipeline([]float64{1, 1}, []int{0, 1, 0}) }

	// Expensive registers on the input side: the register must end on b's
	// out-edge (the only cheap tail).
	rg := build()
	area := []float64{10, 10, 1, 1} // pi, a, b, po
	res, err := minAreaAt(rg, 100, area)
	if err != nil {
		t.Fatal(err)
	}
	tails := res.TailRegisters
	if tails[2] != 1 || tails[0] != 0 || tails[1] != 0 {
		t.Fatalf("heavy-input: tails=%v (labels %v)", tails, res.R)
	}

	// Expensive on the output side: the register must avoid b's tile.
	rg = build()
	area = []float64{1, 1, 10, 10}
	res, err = minAreaAt(rg, 100, area)
	if err != nil {
		t.Fatal(err)
	}
	tails = res.TailRegisters
	if tails[2] != 0 || tails[0]+tails[1] != 1 {
		t.Fatalf("heavy-output: tails=%v (labels %v)", tails, res.R)
	}
}

func TestMinAreaUniformNeverWorseThanInitial(t *testing.T) {
	// At the initial period, the identity labeling is feasible, so min-area
	// retiming can never need more registers than the initial count.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		rg := randomGraph(rng, 8, true)
		p, err := rg.Period()
		if err != nil {
			t.Fatal(err)
		}
		res, err := rg.MinArea(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Registers > rg.TotalRegisters() {
			t.Fatalf("trial %d: min-area increased registers %d -> %d",
				trial, rg.TotalRegisters(), res.Registers)
		}
		if err := rg.CheckFeasible(res.R, p); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// randomGraph builds a small random retiming graph. Forward edges may carry
// 0..2 registers; back edges at least 1 (no combinational cycles). With
// ports=true, a pinned source/sink pair is attached.
func randomGraph(rng *rand.Rand, n int, ports bool) *Graph {
	rg := NewGraph()
	for i := 0; i < n; i++ {
		rg.AddVertex("u", KindUnit, float64(1+rng.Intn(4)))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || rng.Float64() < 0.6 {
				continue
			}
			w := rng.Intn(3)
			if j < i && w == 0 {
				w = 1 + rng.Intn(2)
			}
			rg.AddEdge(i, j, w)
		}
	}
	// Ensure some structure: chain 0..n-1 lightly.
	for i := 0; i+1 < n; i++ {
		rg.AddEdge(i, i+1, rng.Intn(2))
	}
	if ports {
		pi := rg.AddVertex("pi", KindPort, 0)
		po := rg.AddVertex("po", KindPort, 0)
		rg.AddEdge(pi, 0, rng.Intn(2))
		rg.AddEdge(n-1, po, rng.Intn(2))
	}
	return rg
}

// TestMinAreaAgainstBruteForce enumerates labelings on tiny graphs and
// checks the flow-based optimum matches.
func TestMinAreaAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(3)
		rg := randomGraph(rng, n, trial%2 == 0)
		p, err := rg.Period()
		if err != nil {
			t.Fatal(err)
		}
		T := p * (0.7 + rng.Float64()*0.6)
		res, err := rg.MinArea(T)
		if err != nil {
			// Infeasible targets are fine as long as brute force agrees.
			if bruteForceMinRegisters(rg, T) >= 0 {
				t.Fatalf("trial %d: solver infeasible but brute force found a solution (T=%g)", trial, T)
			}
			continue
		}
		want := bruteForceMinRegisters(rg, T)
		if want < 0 {
			t.Fatalf("trial %d: solver found %d but brute force infeasible", trial, res.Registers)
		}
		if res.Registers != want {
			t.Fatalf("trial %d: solver %d registers, brute force %d (T=%g)", trial, res.Registers, want, T)
		}
	}
}

// bruteForceMinRegisters enumerates labelings in [-3,3]^N (pinned fixed at
// 0) and returns the minimum feasible register count, or -1.
func bruteForceMinRegisters(rg *Graph, T float64) int {
	n := rg.N()
	labels := make([]int, n)
	best := -1
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if rg.CheckFeasible(labels, T) == nil {
				applied, _ := rg.Apply(labels)
				if c := applied.TotalRegisters(); best < 0 || c < best {
					best = c
				}
			}
			return
		}
		if rg.Pinned(i) {
			labels[i] = 0
			rec(i + 1)
			return
		}
		for v := -3; v <= 3; v++ {
			labels[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

func TestMinPeriodAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(3)
		rg := randomGraph(rng, n, trial%2 == 1)
		T, r, _, err := rg.MinPeriod(context.Background(), 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if err := rg.CheckFeasible(r, T+1e-6); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := bruteForceMinPeriod(rg)
		if math.Abs(T-want) > 1e-3 {
			t.Fatalf("trial %d: MinPeriod=%g, brute force=%g", trial, T, want)
		}
	}
}

func bruteForceMinPeriod(rg *Graph) float64 {
	n := rg.N()
	labels := make([]int, n)
	best := math.Inf(1)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			applied, err := rg.Apply(labels)
			if err != nil {
				return
			}
			if p, err := applied.Period(); err == nil && p < best {
				best = p
			}
			return
		}
		if rg.Pinned(i) {
			labels[i] = 0
			rec(i + 1)
			return
		}
		for v := -3; v <= 3; v++ {
			labels[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

func TestFromCollapsed(t *testing.T) {
	nl := netlist.New("c")
	a, _ := nl.AddInput("a")
	g1, _ := nl.AddGate("g1", "AND", a)
	f1, _ := nl.AddDFF("f1", g1)
	g2, _ := nl.AddGate("g2", "OR", f1)
	nl.MarkOutput(g2)
	nl.AssignUniform(1.5, 10)
	col, err := nl.Collapse()
	if err != nil {
		t.Fatal(err)
	}
	rg, vmap, err := FromCollapsed(nl, col)
	if err != nil {
		t.Fatal(err)
	}
	// Vertices: a (port), g1, g2 (units), po pin = 4.
	if rg.N() != 4 || rg.M() != 3 {
		t.Fatalf("N=%d M=%d", rg.N(), rg.M())
	}
	if !rg.Pinned(vmap[a]) || rg.Pinned(vmap[g1]) {
		t.Fatal("pinning wrong")
	}
	if rg.Delay(vmap[g1]) != 1.5 {
		t.Fatalf("delay=%g", rg.Delay(vmap[g1]))
	}
	if rg.TotalRegisters() != 1 {
		t.Fatalf("registers=%d", rg.TotalRegisters())
	}
	if rg.Origin(vmap[g1]) != g1 {
		t.Fatal("origin mapping wrong")
	}
	p, err := rg.Period()
	if err != nil {
		t.Fatal(err)
	}
	if p != 1.5 {
		t.Fatalf("period=%g", p)
	}
}

func TestConstraintCounts(t *testing.T) {
	rg := pipeline([]float64{1, 1, 1}, []int{0, 1, 1, 0})
	cs, err := rg.BuildConstraints(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if cs.EdgeCount == 0 || cs.PinCount == 0 {
		t.Fatalf("counts: %+v", cs)
	}
	if len(cs.Cons) != cs.EdgeCount+cs.ClockCount+cs.PinCount {
		t.Fatalf("inconsistent counts: %+v", cs)
	}
}

func TestClockConstraintPruning(t *testing.T) {
	// A long chain produces many violating pairs; pruning should keep far
	// fewer than the full O(V^2) set.
	delays := make([]float64, 12)
	weights := make([]int, 13)
	for i := range delays {
		delays[i] = 1
	}
	weights[0] = 0
	weights[12] = 0
	for i := 1; i < 12; i++ {
		weights[i] = 1
	}
	rg := pipeline(delays, weights)
	wd := oracleWD(rg)
	cs, err := rg.BuildConstraints(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cons := cs.Cons[cs.EdgeCount : cs.EdgeCount+cs.ClockCount]
	// Full pair set with D>1 would be ~N^2/2; pruned should be at most
	// one per (source, frontier) which for a chain is O(N).
	if len(cons) > 40 {
		t.Fatalf("pruning ineffective: %d constraints", len(cons))
	}
	// And the pruned system must be exactly as restrictive: compare
	// feasibility against the unpruned system on a few probes.
	for _, T := range []float64{1, 1.5, 2, 3} {
		pruned, err := rg.BuildConstraints(context.Background(), T)
		if err != nil {
			continue
		}
		rp, okP := pruned.Feasible(rg)
		full := fullConstraints(rg, T, wd)
		_, okF := full.Feasible(rg)
		if okP != okF {
			t.Fatalf("T=%g: pruned feasibility %v != full %v", T, okP, okF)
		}
		if okP {
			if err := rg.CheckFeasible(rp, T); err != nil {
				t.Fatalf("T=%g: pruned solution invalid: %v", T, err)
			}
		}
	}
}

// fullConstraints builds the unpruned constraint system for cross-checks.
func fullConstraints(rg *Graph, T float64, wd *WD) *Constraints {
	cs := &Constraints{N: rg.N()}
	cs.Cons = append(cs.Cons, rg.EdgeConstraints()...)
	for u := 0; u < rg.N(); u++ {
		for v := 0; v < rg.N(); v++ {
			if u == v || wd.W[u][v] < 0 || float64(wd.D[u][v]) <= T+periodTol(T) {
				continue
			}
			cs.Cons = append(cs.Cons, Constraint{U: u, V: v, Bound: int(wd.W[u][v]) - 1})
		}
	}
	cs.Cons = append(cs.Cons, rg.PinConstraints()...)
	return cs
}

// TestPrunedMatchesFullOnRandomGraphs is the pruning soundness property
// test: pruned and full systems accept exactly the same labelings on
// random graphs and random periods.
func TestPrunedMatchesFullOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		rg := randomGraph(rng, 4+rng.Intn(4), trial%2 == 0)
		wd := oracleWD(rg)
		p, _ := rg.Period()
		T := p * (0.5 + rng.Float64())
		maxDelay := 0.0
		for v := 0; v < rg.N(); v++ {
			if rg.Delay(v) > maxDelay {
				maxDelay = rg.Delay(v)
			}
		}
		if T < maxDelay {
			T = maxDelay
		}
		pruned, err := rg.BuildConstraints(context.Background(), T)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		full := fullConstraints(rg, T, wd)
		rP, okP := pruned.Feasible(rg)
		rF, okF := full.Feasible(rg)
		if okP != okF {
			t.Fatalf("trial %d: pruned %v != full %v (T=%g)", trial, okP, okF, T)
		}
		if okP {
			if err := rg.CheckFeasible(rP, T); err != nil {
				t.Fatalf("trial %d: pruned labeling invalid: %v", trial, err)
			}
			if err := rg.CheckFeasible(rF, T); err != nil {
				t.Fatalf("trial %d: full labeling invalid: %v", trial, err)
			}
		}
	}
}

func TestEdgeConstraintsDedupeParallel(t *testing.T) {
	rg := NewGraph()
	a := rg.AddVertex("a", KindUnit, 1)
	b := rg.AddVertex("b", KindUnit, 1)
	rg.AddEdge(a, b, 3)
	rg.AddEdge(a, b, 1) // tighter
	rg.AddEdge(a, a, 5) // self loop: dropped
	cons := rg.EdgeConstraints()
	if len(cons) != 1 || cons[0].Bound != 1 {
		t.Fatalf("cons = %+v", cons)
	}
}

func TestPinConstraintsCounts(t *testing.T) {
	rg := NewGraph()
	rg.AddVertex("u", KindUnit, 1)
	if got := rg.PinConstraints(); len(got) != 0 {
		t.Fatalf("no pins -> %v", got)
	}
	rg.AddVertex("p1", KindPort, 0)
	if got := rg.PinConstraints(); len(got) != 0 {
		t.Fatalf("single pin -> %v", got)
	}
	rg.AddVertex("p2", KindPort, 0)
	rg.AddVertex("p3", KindPort, 0)
	// 3 pins -> 2 pairs x 2 directions = 4 constraints.
	if got := rg.PinConstraints(); len(got) != 4 {
		t.Fatalf("3 pins -> %d constraints", len(got))
	}
}

func TestSetPinnedOverride(t *testing.T) {
	rg := pipeline([]float64{1}, []int{1, 1})
	rg.SetPinned(1, true) // pin the internal unit too
	T, r, _, err := rg.MinPeriod(context.Background(), 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if r[1] != 0 {
		t.Fatalf("pinned internal vertex moved: %v (T=%g)", r, T)
	}
}
