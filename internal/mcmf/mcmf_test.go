package mcmf

import (
	"math"
	"math/rand"
	"testing"
)

// solve routes one supply vector on a network: SetSupply, then Resolve
// (cold on a fresh network).
func solve(g *Graph, supply []float64) (float64, error) {
	if err := g.SetSupply(supply); err != nil {
		return 0, err
	}
	return g.Resolve()
}

func TestSimplePath(t *testing.T) {
	// 0 -> 1 -> 2, unit costs; ship 5 units from 0 to 2.
	g := New(3)
	a := g.AddArc(0, 1, 10, 1)
	b := g.AddArc(1, 2, 10, 1)
	cost, err := solve(g, []float64{5, 0, -5})
	if err != nil {
		t.Fatal(err)
	}
	if cost != 10 {
		t.Fatalf("cost=%g, want 10", cost)
	}
	if g.Flow(a) != 5 || g.Flow(b) != 5 {
		t.Fatalf("flows: %g, %g; want 5, 5", g.Flow(a), g.Flow(b))
	}
}

func TestChoosesCheaperPath(t *testing.T) {
	// Two parallel routes 0->2: direct cost 5, via 1 cost 2+2=4 but cap 3.
	g := New(3)
	direct := g.AddArc(0, 2, 10, 5)
	via1 := g.AddArc(0, 1, 3, 2)
	via2 := g.AddArc(1, 2, 3, 2)
	cost, err := solve(g, []float64{5, 0, -5})
	if err != nil {
		t.Fatal(err)
	}
	// 3 units at cost 4, 2 at cost 5 -> 22.
	if cost != 22 {
		t.Fatalf("cost=%g, want 22", cost)
	}
	if g.Flow(via1) != 3 || g.Flow(via2) != 3 || g.Flow(direct) != 2 {
		t.Fatalf("flows: via=%g/%g direct=%g", g.Flow(via1), g.Flow(via2), g.Flow(direct))
	}
}

func TestNegativeCostArc(t *testing.T) {
	// Negative arc on the only path; Bellman-Ford potentials must handle it.
	g := New(3)
	g.AddArc(0, 1, 10, -4)
	g.AddArc(1, 2, 10, 1)
	cost, err := solve(g, []float64{2, 0, -2})
	if err != nil {
		t.Fatal(err)
	}
	if cost != -6 {
		t.Fatalf("cost=%g, want -6", cost)
	}
}

func TestNegativeCycleDetected(t *testing.T) {
	g := New(2)
	g.AddArc(0, 1, Inf, -1)
	g.AddArc(1, 0, Inf, -1)
	if _, err := solve(g, []float64{0, 0}); err != ErrNegativeCycle {
		t.Fatalf("err=%v, want ErrNegativeCycle", err)
	}
}

func TestNegativeSelfLoopDetected(t *testing.T) {
	// A self-loop's two residual halves share one tail's arc range.
	g := New(2)
	g.AddArc(0, 1, Inf, 1)
	g.AddArc(1, 1, 1, -1)
	if _, err := solve(g, []float64{1, -1}); err != ErrNegativeCycle {
		t.Fatalf("err=%v, want ErrNegativeCycle", err)
	}
}

func TestInfeasibleSupplies(t *testing.T) {
	// No path from 0 to 1.
	g := New(2)
	if _, err := solve(g, []float64{1, -1}); err != ErrInfeasible {
		t.Fatalf("err=%v, want ErrInfeasible", err)
	}
}

func TestUnbalancedSuppliesRejected(t *testing.T) {
	g := New(2)
	g.AddArc(0, 1, 10, 1)
	if _, err := solve(g, []float64{2, -1}); err == nil {
		t.Fatal("expected error for unbalanced supplies")
	}
}

func TestZeroSupplyNoFlow(t *testing.T) {
	g := New(2)
	a := g.AddArc(0, 1, 10, 1)
	cost, err := solve(g, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 || g.Flow(a) != 0 {
		t.Fatalf("cost=%g flow=%g, want 0,0", cost, g.Flow(a))
	}
}

func TestInfiniteCapacity(t *testing.T) {
	g := New(2)
	a := g.AddArc(0, 1, Inf, 3)
	cost, err := solve(g, []float64{7, -7})
	if err != nil {
		t.Fatal(err)
	}
	if cost != 21 || g.Flow(a) != 7 {
		t.Fatalf("cost=%g flow=%g", cost, g.Flow(a))
	}
}

func TestMultipleSourcesSinks(t *testing.T) {
	// 0 and 1 supply, 3 and 4 consume through middle node 2.
	g := New(5)
	g.AddArc(0, 2, Inf, 1)
	g.AddArc(1, 2, Inf, 2)
	g.AddArc(2, 3, Inf, 1)
	g.AddArc(2, 4, Inf, 3)
	cost, err := solve(g, []float64{2, 3, 0, -4, -1})
	if err != nil {
		t.Fatal(err)
	}
	// All 5 units pass node 2: in-cost 2*1+3*2=8, out-cost 4*1+1*3=7.
	if cost != 15 {
		t.Fatalf("cost=%g, want 15", cost)
	}
}

func TestPotentialsFeasibility(t *testing.T) {
	// After solving, potentials must satisfy dist[to] <= dist[from]+cost on
	// every residual arc; in particular on unsaturated forward arcs.
	g := New(4)
	arcs := []struct {
		from, to int
		cap, c   float64
	}{
		{0, 1, 4, 2}, {1, 2, 4, -1}, {0, 2, 2, 5}, {2, 3, 6, 1}, {1, 3, 1, 4},
	}
	var ids []ArcID
	for _, a := range arcs {
		ids = append(ids, g.AddArc(a.from, a.to, a.cap, a.c))
	}
	if _, err := solve(g, []float64{3, 0, 0, -3}); err != nil {
		t.Fatal(err)
	}
	pot, err := g.Potentials()
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range arcs {
		if g.Flow(ids[i]) < a.cap-Eps { // forward residual arc exists
			if pot[a.to] > pot[a.from]+a.c+1e-6 {
				t.Fatalf("residual arc (%d,%d) violates potential inequality", a.from, a.to)
			}
		}
		if g.Flow(ids[i]) > Eps { // backward residual arc exists
			if pot[a.from] > pot[a.to]-a.c+1e-6 {
				t.Fatalf("backward residual arc (%d,%d) violates potential inequality", a.to, a.from)
			}
		}
	}
}

// arcSpec is one arc of a brute-forced network.
type arcSpec struct {
	from, to int
	cap      int
	cost     float64
}

// bruteMinCost enumerates every integral flow on a tiny network and returns
// the least cost of one that routes supply, or +Inf when none does.
func bruteMinCost(n int, specs []arcSpec, supply []float64) float64 {
	best := math.Inf(1)
	flows := make([]int, len(specs))
	var rec func(k int)
	rec = func(k int) {
		if k == len(specs) {
			net := make([]float64, n)
			c := 0.0
			for i, s := range specs {
				net[s.from] += float64(flows[i])
				net[s.to] -= float64(flows[i])
				c += float64(flows[i]) * s.cost
			}
			for v := range net {
				if net[v] != supply[v] {
					return
				}
			}
			best = math.Min(best, c)
			return
		}
		for f := 0; f <= specs[k].cap; f++ {
			flows[k] = f
			rec(k + 1)
		}
	}
	rec(0)
	return best
}

// TestRandomAgainstBruteForce compares SSP against exhaustive enumeration of
// integral flows on tiny networks.
func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(3)
		var specs []arcSpec
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j || rng.Float64() < 0.45 {
					continue
				}
				specs = append(specs, arcSpec{i, j, 1 + rng.Intn(3), float64(rng.Intn(7))})
			}
		}
		amount := 1 + rng.Intn(3)
		src, dst := 0, n-1

		g := New(n)
		for _, s := range specs {
			g.AddArc(s.from, s.to, float64(s.cap), s.cost)
		}
		supply := make([]float64, n)
		supply[src] = float64(amount)
		supply[dst] = -float64(amount)
		got, err := solve(g, supply)

		if len(specs) > 12 {
			continue
		}
		best := bruteMinCost(n, specs, supply)
		if math.IsInf(best, 1) {
			if err == nil {
				t.Fatalf("trial %d: brute force infeasible but solver returned %g", trial, got)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: solver error %v but brute force found %g", trial, err, best)
		}
		if math.Abs(got-best) > 1e-6 {
			t.Fatalf("trial %d: solver cost %g, brute force %g", trial, got, best)
		}
	}
}

// TestResidualReducedCostsNonnegative is the tolerance-unification stress
// test: random networks with near-tied path costs (distinct paths whose
// lengths differ by ~1e-10, below costEps) and Inf-capacity arcs. After
// every augmentation the maintained potentials must keep every residual
// arc's reduced cost above -costEps — the successive-shortest-path
// invariant that the early-terminated Dijkstra label update is supposed to
// preserve. The previous mismatched tolerances (-1e-6 clamp vs -1e-12
// relaxation vs -1e-9 in Potentials) let drift through this check.
func TestResidualReducedCostsNonnegative(t *testing.T) {
	defer func() { augmentCheck = nil }()
	augmentCheck = func(g *Graph, pot []float64) {
		for v := 0; v < g.n; v++ {
			for i := g.start[v]; i < g.start[v+1]; i++ {
				a := g.arcs[i]
				if a.cap <= Eps {
					continue
				}
				if rc := a.cost + pot[v] - pot[a.to]; rc < -costEps {
					t.Errorf("residual arc %d->%d has reduced cost %g", v, a.to, rc)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(5)
		g := New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j || rng.Float64() < 0.4 {
					continue
				}
				capacity := float64(1 + rng.Intn(4))
				if rng.Float64() < 0.3 {
					capacity = Inf
				}
				// Integral base costs plus sub-costEps jitter: many paths
				// become numerically indistinguishable near-ties.
				cost := float64(rng.Intn(4)) + float64(rng.Intn(3))*1e-10
				g.AddArc(i, j, capacity, cost)
			}
		}
		supply := make([]float64, n)
		amt := float64(1 + rng.Intn(5))
		supply[0], supply[n-1] = amt, -amt
		if _, err := solve(g, supply); err != nil && err != ErrInfeasible {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if t.Failed() {
			t.Fatalf("trial %d: residual reduced-cost invariant violated", trial)
		}
	}
}

func TestResolveWarmRoutesSupplyDelta(t *testing.T) {
	// Increasing one endpoint pair's supply in a large-enough network must
	// keep the prior flow and route only the delta, not re-route the base
	// (the network is big enough that 2 changed supplies stay under the
	// adaptive flow-reset threshold).
	const n = 10
	g := New(n)
	for v := 0; v+1 < n; v++ {
		g.AddArc(v, v+1, Inf, 3)
	}
	supply := make([]float64, n)
	supply[0], supply[n-1] = 5, -5
	if err := g.SetSupply(supply); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Resolve(); err != nil {
		t.Fatal(err)
	}
	supply[0], supply[n-1] = 7, -7
	if err := g.SetSupply(supply); err != nil {
		t.Fatal(err)
	}
	cost, err := g.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if want := 7.0 * 3 * (n - 1); cost != want {
		t.Fatalf("cost=%g, want %g", cost, want)
	}
	st := g.Stats()
	if !st.Warm || st.FlowReset || st.SupplyChanged != 2 || st.AugmentingPaths != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestResolveGlobalSupplyChangeResetsFlow(t *testing.T) {
	// When most supplies change, the warm solve drops the old flow (it
	// would only clutter the residual with narrow reverse arcs) but keeps
	// the built network, and must still match a from-scratch solve.
	const n = 6
	specs := [][4]float64{{0, 1, Inf, 0}, {1, 2, Inf, 0}, {2, 3, Inf, 0},
		{3, 4, Inf, 0}, {4, 5, Inf, 0}, {0, 3, Inf, 0}, {2, 5, Inf, 0}}
	costs := []float64{2, 1, 3, 1, 2, 5, 4}
	g := New(n)
	for i, s := range specs {
		g.AddArc(int(s[0]), int(s[1]), s[2], costs[i])
	}
	if err := g.SetSupply([]float64{4, 1, -2, 0, -1, -2}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Resolve(); err != nil {
		t.Fatal(err)
	}
	supply := []float64{1, 3, -1, 2, -3, -2}
	if err := g.SetSupply(supply); err != nil {
		t.Fatal(err)
	}
	cost, err := g.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if !st.Warm || !st.FlowReset {
		t.Fatalf("stats: %+v", st)
	}
	wantCost, wantPot := coldCopy(t, n, specs, costs, supply)
	if cost != wantCost {
		t.Fatalf("cost=%g, cold=%g", cost, wantCost)
	}
	pot, err := g.Potentials()
	if err != nil {
		t.Fatal(err)
	}
	for v := range pot {
		if pot[v] != wantPot[v] {
			t.Fatalf("pot[%d]=%g, cold=%g", v, pot[v], wantPot[v])
		}
	}
}

// TestResetKeepsFinitePotentialsFeasible covers the flow reset's one case
// where the live potentials are not dual-feasible on a cleared residual.
// The first optimum ships one unit over the cheap finite arc a→b (cost −1)
// and one over the dear unbounded one, so the cheap arc is saturated at a
// negative reduced cost. The next supplies change every node and route
// only b→c, which the old flow never touched. The reset must keep the
// cheap arc saturated and charge it to the imbalance of a and b: left
// residual at a negative reduced cost, it would make the label extraction
// miss that b sits one below a. The cost and the canonical potentials must
// equal a cold solve's.
func TestResetKeepsFinitePotentialsFeasible(t *testing.T) {
	const n = 3
	const a, b, c = 0, 1, 2
	specs := [][4]float64{{a, b, 1, 0}, {a, b, Inf, 0}, {b, c, Inf, 0}, {a, c, Inf, 0}}
	costs := []float64{-1, 4, 0, 10}
	g := New(n)
	for i, s := range specs {
		g.AddArc(int(s[0]), int(s[1]), s[2], costs[i])
	}
	if _, err := solve(g, []float64{2, -2, 0}); err != nil {
		t.Fatal(err)
	}
	if rc := costs[0] + g.pot[a] - g.pot[b]; rc >= -costEps {
		t.Fatalf("cheap arc's reduced cost %g at the first optimum, want negative", rc)
	}
	supply := []float64{0, 1, -1}
	cost, err := solve(g, supply)
	if err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); !st.Warm || !st.FlowReset {
		t.Fatalf("stats: %+v", st)
	}
	wantCost, wantPot := coldCopy(t, n, specs, costs, supply)
	if cost != wantCost {
		t.Fatalf("cost=%g, cold=%g", cost, wantCost)
	}
	pot, err := g.Potentials()
	if err != nil {
		t.Fatal(err)
	}
	for v := range pot {
		if pot[v] != wantPot[v] {
			t.Fatalf("pot[%d]=%g, cold=%g", v, pot[v], wantPot[v])
		}
	}
}

// TestResetSequenceUnboundedArcs drives random networks of unbounded arcs,
// as the retiming constraint networks are, through rounds in which every
// supply is redrawn, so every warm round resets the flow and keeps the
// previous optimum's potentials. Arc costs c + φ(u) − φ(v) with c ≥ 0 are
// often negative but no cycle is. Every round must match a cold solve in
// cost and canonical potentials, and every push must keep the residual
// reduced costs nonnegative.
func TestResetSequenceUnboundedArcs(t *testing.T) {
	defer func() { augmentCheck = nil }()
	augmentCheck = func(g *Graph, pot []float64) {
		for v := 0; v < g.n; v++ {
			for i := g.start[v]; i < g.start[v+1]; i++ {
				if a := g.arcs[i]; a.cap > Eps && a.cost+pot[v]-pot[a.to] < -costEps {
					t.Errorf("residual arc %d->%d has reduced cost %g", v, a.to, a.cost+pot[v]-pot[a.to])
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(20)
		phi := make([]float64, n)
		for v := range phi {
			phi[v] = float64(rng.Intn(9))
		}
		var specs [][4]float64
		var costs []float64
		add := func(u, v int, cost float64) {
			specs = append(specs, [4]float64{float64(u), float64(v), Inf, 0})
			costs = append(costs, cost+phi[u]-phi[v])
		}
		for v := 0; v < n; v++ {
			add(v, (v+1)%n, float64(2+rng.Intn(3)))
		}
		for k := 3 * n; k > 0; k-- {
			add(rng.Intn(n), rng.Intn(n), float64(rng.Intn(6)))
		}
		g := New(n)
		for i, s := range specs {
			g.AddArc(int(s[0]), int(s[1]), s[2], costs[i])
		}
		supply := make([]float64, n)
		for round := 0; round < 6; round++ {
			for v := range supply {
				supply[v] = 0
			}
			for k := 0; k < n; k++ {
				u, v := rng.Intn(n), rng.Intn(n)
				d := float64(1 + rng.Intn(4))
				supply[u] += d
				supply[v] -= d
			}
			cost, err := solve(g, supply)
			if err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			if st := g.Stats(); round > 0 && !st.FlowReset {
				t.Fatalf("trial %d round %d: stats %+v", trial, round, st)
			}
			coldCost, coldPot := coldCopy(t, n, specs, costs, supply)
			if cost != coldCost {
				t.Fatalf("trial %d round %d: cost %g, cold %g", trial, round, cost, coldCost)
			}
			pot, err := g.Potentials()
			if err != nil {
				t.Fatalf("trial %d round %d: potentials: %v", trial, round, err)
			}
			for v := range pot {
				if pot[v] != coldPot[v] {
					t.Fatalf("trial %d round %d: pot[%d] %g, cold %g", trial, round, v, pot[v], coldPot[v])
				}
			}
			if t.Failed() {
				t.Fatalf("trial %d round %d: reduced-cost invariant violated", trial, round)
			}
		}
	}
}

func TestResolveUnchangedIsFree(t *testing.T) {
	g := New(3)
	g.AddArc(0, 1, 10, 1)
	g.AddArc(1, 2, 10, 1)
	if err := g.SetSupply([]float64{5, 0, -5}); err != nil {
		t.Fatal(err)
	}
	c1, err := g.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := g.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatalf("re-resolve changed cost: %g -> %g", c1, c2)
	}
	st := g.Stats()
	if !st.Warm || st.AugmentingPaths != 0 || st.SupplyChanged != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestAddArcAfterResolve(t *testing.T) {
	// The network is fixed once solving starts: an arc added after the
	// first Resolve is a programming error, like an out-of-range endpoint.
	g := New(2)
	g.AddArc(0, 1, 10, 5)
	if err := g.SetSupply([]float64{3, -3}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Resolve(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddArc after Resolve did not panic")
		}
	}()
	g.AddArc(0, 1, 10, 1)
}

func TestSetSupplyValidation(t *testing.T) {
	g := New(2)
	g.AddArc(0, 1, 10, 1)
	if err := g.SetSupply([]float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := g.SetSupply([]float64{2, -1}); err == nil {
		t.Fatal("unbalanced supplies accepted")
	}
	if err := g.SetSupply([]float64{1, -1}); err != nil {
		t.Fatal(err)
	}
}

// coldCopy rebuilds the same network from scratch with the given costs and
// solves it cold, as the pre-incremental engine would.
func coldCopy(t *testing.T, n int, specs [][4]float64, costs, supply []float64) (float64, []float64) {
	t.Helper()
	g := New(n)
	for i, s := range specs {
		g.AddArc(int(s[0]), int(s[1]), s[2], costs[i])
	}
	cost, err := solve(g, supply)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	pot, err := g.Potentials()
	if err != nil {
		t.Fatalf("cold potentials: %v", err)
	}
	return cost, pot
}

// TestResolveWarmEqualsColdRandom is the warm/cold equivalence gate at the
// mcmf level: random networks driven through rounds of random supply
// changes must match a from-scratch solve in optimal cost after
// every round, and — because the residual network of any optimal flow spans
// the same dual face — in canonical potentials too. The augmentCheck hook
// keeps the reduced-cost invariant asserted after every augmentation of
// every warm round (the warm-path extension of
// TestResidualReducedCostsNonnegative).
func TestResolveWarmEqualsColdRandom(t *testing.T) {
	defer func() { augmentCheck = nil }()
	augmentCheck = func(g *Graph, pot []float64) {
		for v := 0; v < g.n; v++ {
			for i := g.start[v]; i < g.start[v+1]; i++ {
				a := g.arcs[i]
				if a.cap <= Eps {
					continue
				}
				if rc := a.cost + pot[v] - pot[a.to]; rc < -costEps {
					t.Errorf("residual arc %d->%d has reduced cost %g", v, a.to, rc)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(5)
		var specs [][4]float64 // from, to, cap (Inf allowed), unused
		var costs []float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j || rng.Float64() < 0.35 {
					continue
				}
				capacity := float64(2 + rng.Intn(5))
				if rng.Float64() < 0.25 {
					capacity = Inf
				}
				specs = append(specs, [4]float64{float64(i), float64(j), capacity, 0})
				costs = append(costs, float64(rng.Intn(6)))
			}
		}
		g := New(n)
		for i, s := range specs {
			g.AddArc(int(s[0]), int(s[1]), s[2], costs[i])
		}
		supply := make([]float64, n)
		for round := 0; round < 5; round++ {
			if round > 0 {
				// Shift supplies, keeping balance.
				u, v := rng.Intn(n), rng.Intn(n)
				d := float64(1 + rng.Intn(2))
				supply[u] += d
				supply[v] -= d
			} else {
				supply[0] = float64(1 + rng.Intn(3))
				supply[n-1] = -supply[0]
			}
			if err := g.SetSupply(supply); err != nil {
				t.Fatalf("trial %d round %d: SetSupply: %v", trial, round, err)
			}
			warmCost, err := g.Resolve()
			if err == ErrInfeasible {
				break // state undefined after error; stop this trial
			}
			if err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			if round > 0 && !g.Stats().Warm {
				t.Fatalf("trial %d round %d: expected warm solve, stats %+v", trial, round, g.Stats())
			}
			coldCost, coldPot := coldCopy(t, n, specs, costs, supply)
			if math.Abs(warmCost-coldCost) > 1e-6 {
				t.Fatalf("trial %d round %d: warm cost %g, cold cost %g", trial, round, warmCost, coldCost)
			}
			warmPot, err := g.Potentials()
			if err != nil {
				t.Fatalf("trial %d round %d: warm potentials: %v", trial, round, err)
			}
			for v := range warmPot {
				if math.Abs(warmPot[v]-coldPot[v]) > 1e-6 {
					t.Fatalf("trial %d round %d: potentials diverge at %d: warm %g cold %g",
						trial, round, v, warmPot[v], coldPot[v])
				}
			}
			if t.Failed() {
				t.Fatalf("trial %d round %d: invariant violated", trial, round)
			}
		}
	}
}

// TestResolveSequenceProperties drives random networks — parallel arcs,
// self-loops, finite and infinite capacities, a feasibility ring — through
// mixed sequences of delta supply changes (a unit shifted between two
// nodes, routed through the kept flow) and global ones (every supply
// redrawn, which resets the flow). After every Resolve the flow read back
// through Flow must conserve each node's supply and respect capacities,
// the returned cost must equal Σ Flow·cost, and Potentials must equal a
// fresh cold network's.
func TestResolveSequenceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 6 + rng.Intn(15)
		var specs [][4]float64
		var costs []float64
		add := func(u, v int, capacity, cost float64) {
			specs = append(specs, [4]float64{float64(u), float64(v), capacity, 0})
			costs = append(costs, cost)
		}
		for v := 0; v < n; v++ {
			add(v, (v+1)%n, Inf, float64(3+rng.Intn(4)))
		}
		for k := 3 * n; k > 0; k-- {
			u, v := rng.Intn(n), rng.Intn(n)
			capacity := float64(1 + rng.Intn(4))
			if rng.Float64() < 0.3 {
				capacity = Inf
			}
			add(u, v, capacity, float64(rng.Intn(5)))
		}
		g := New(n)
		for i, s := range specs {
			g.AddArc(int(s[0]), int(s[1]), s[2], costs[i])
		}
		supply := make([]float64, n)
		for round := 0; round < 8; round++ {
			global := round == 0 || rng.Float64() < 0.4
			if global {
				for v := range supply {
					supply[v] = 0
				}
				for k := 0; k < n; k++ {
					u, v := rng.Intn(n), rng.Intn(n)
					d := float64(1 + rng.Intn(3))
					supply[u] += d
					supply[v] -= d
				}
			} else {
				u, v := rng.Intn(n), rng.Intn(n)
				d := float64(1 + rng.Intn(3))
				supply[u] += d
				supply[v] -= d
			}
			if err := g.SetSupply(supply); err != nil {
				t.Fatalf("trial %d round %d: SetSupply: %v", trial, round, err)
			}
			cost, err := g.Resolve()
			if err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			st := g.Stats()
			if round > 0 && (!st.Warm || st.FlowReset != (4*st.SupplyChanged >= n)) {
				t.Fatalf("trial %d round %d: stats %+v", trial, round, st)
			}
			if st.Labelings < st.Phases {
				t.Fatalf("trial %d round %d: %d labelings in %d phases", trial, round, st.Labelings, st.Phases)
			}
			net := make([]float64, n)
			var sum float64
			for i, s := range specs {
				f := g.Flow(ArcID(i))
				if f < 0 || f > s[2] {
					t.Fatalf("trial %d round %d: arc %d flow %g outside [0,%g]", trial, round, i, f, s[2])
				}
				net[int(s[0])] += f
				net[int(s[1])] -= f
				sum += f * costs[i]
			}
			for v := range net {
				if net[v] != supply[v] {
					t.Fatalf("trial %d round %d: node %d routes %g, supply %g", trial, round, v, net[v], supply[v])
				}
			}
			if cost != sum {
				t.Fatalf("trial %d round %d: cost %g, Σ Flow·cost %g", trial, round, cost, sum)
			}
			coldCost, coldPot := coldCopy(t, n, specs, costs, supply)
			pot, err := g.Potentials()
			if err != nil {
				t.Fatalf("trial %d round %d: potentials: %v", trial, round, err)
			}
			if cost != coldCost {
				t.Fatalf("trial %d round %d: cost %g, cold %g", trial, round, cost, coldCost)
			}
			for v := range pot {
				if pot[v] != coldPot[v] {
					t.Fatalf("trial %d round %d: pot[%d] %g, cold %g", trial, round, v, pot[v], coldPot[v])
				}
			}
		}
	}
}

// residualBellmanFord is the test-side reference for Potentials: plain
// Bellman–Ford from a zero-cost virtual root over the residual arcs.
func residualBellmanFord(g *Graph) []float64 {
	dist := make([]float64, g.n)
	for changed := true; changed; {
		changed = false
		for v := 0; v < g.n; v++ {
			for i := g.start[v]; i < g.start[v+1]; i++ {
				if a := g.arcs[i]; a.cap > Eps && dist[v]+a.cost < dist[a.to] {
					dist[a.to] = dist[v] + a.cost
					changed = true
				}
			}
		}
	}
	return dist
}

// TestPotentialsEqualResidualBellmanFord drives random networks — with
// negative arc costs but no negative cycle — through sequences of delta
// and global supply changes (the global ones reset the flow). After every
// Resolve, the Dijkstra extraction in Potentials must equal a Bellman–Ford
// over the residual arcs exactly.
func TestPotentialsEqualResidualBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	resets := 0
	for trial := 0; trial < 60; trial++ {
		n := 5 + rng.Intn(20)
		// Costs c + φ(u) − φ(v) with c ≥ 0 are often negative, but every
		// cycle costs Σc ≥ 0.
		phi := make([]float64, n)
		for v := range phi {
			phi[v] = float64(rng.Intn(9))
		}
		g := New(n)
		for v := 0; v < n; v++ {
			g.AddArc(v, (v+1)%n, Inf, float64(2+rng.Intn(3))+phi[v]-phi[(v+1)%n])
		}
		for k := 3 * n; k > 0; k-- {
			u, v := rng.Intn(n), rng.Intn(n)
			capacity := float64(1 + rng.Intn(4))
			if rng.Float64() < 0.2 {
				capacity = Inf
			}
			g.AddArc(u, v, capacity, float64(rng.Intn(6))+phi[u]-phi[v])
		}
		supply := make([]float64, n)
		for round := 0; round < 8; round++ {
			if round == 0 || rng.Float64() < 0.4 {
				for v := range supply {
					supply[v] = 0
				}
			}
			for k := 1 + rng.Intn(n); k > 0; k-- {
				u, v := rng.Intn(n), rng.Intn(n)
				d := float64(1 + rng.Intn(3))
				supply[u] += d
				supply[v] -= d
			}
			if _, err := solve(g, supply); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			if g.Stats().FlowReset {
				resets++
			}
			pot, err := g.Potentials()
			if err != nil {
				t.Fatalf("trial %d round %d: potentials: %v", trial, round, err)
			}
			want := residualBellmanFord(g)
			for v := range pot {
				if pot[v] != want[v] {
					t.Fatalf("trial %d round %d: pot[%d] %g, Bellman–Ford %g", trial, round, v, pot[v], want[v])
				}
			}
		}
	}
	if resets == 0 {
		t.Fatal("no solve reset its flow")
	}
}

// TestGapAndGlobalRelabel routes a staircase: source s (supply 3) reaches
// deficit t (demand 1) in one arc and deficit t2 (demand 2) through a
// six-node chain x1…x6 or, at cost 1, directly. The first labeling stops
// once s is labeled, so x1…x5 get the lower bound 2. After s fills t it is
// relabeled above x1 and pushes one unit into the chain, then, with no
// admissible arc left, is relabeled to n: it was the only node at its
// label, so the gap rule fires. The unit climbs the chain one relabel per
// node. s also carries four zero-capacity self-loops, which move no flow
// but make each of its relabels scan eight more arc positions, so the
// relabels outgrow the arc array while the unit sits at x3 and the exact
// labeling reruns. The last unit goes direct in a second phase.
func TestGapAndGlobalRelabel(t *testing.T) {
	const s, t1, t2, x1, k = 0, 1, 2, 3, 6
	specs := []arcSpec{{s, t1, 1, 0}, {s, x1, 1, 0}, {s, t2, 2, 1}}
	for i := 0; i+1 < k; i++ {
		specs = append(specs, arcSpec{x1 + i, x1 + i + 1, 1, 0})
	}
	specs = append(specs, arcSpec{x1 + k - 1, t2, 1, 0})
	for i := 0; i < 4; i++ {
		specs = append(specs, arcSpec{s, s, 0, 0})
	}
	n := x1 + k
	supply := make([]float64, n)
	supply[s], supply[t1], supply[t2] = 3, -1, -2

	fired := map[int]int{}
	defer func() { labelEvent = nil }()
	labelEvent = func(kind int) { fired[kind]++ }
	g := New(n)
	for _, a := range specs {
		g.AddArc(a.from, a.to, float64(a.cap), a.cost)
	}
	cost, err := solve(g, supply)
	if err != nil {
		t.Fatal(err)
	}
	if fired[labelGap] == 0 || fired[labelGlobal] == 0 {
		t.Fatalf("gap rule fired %d times, global relabel %d times; want both", fired[labelGap], fired[labelGlobal])
	}
	if st := g.Stats(); st.Labelings <= st.Phases {
		t.Fatalf("stats %+v: the global relabel is not counted", st)
	}
	if want := bruteMinCost(n, specs, supply); cost != want {
		t.Fatalf("cost %g, brute force %g", cost, want)
	}
}

// TestHeapPopsNondecreasing drives the Dijkstra queue as the searches do:
// after each pop, relax a few items at the popped distance plus a reduced
// cost that is often zero. Every item must pop, and the popped distances
// must never decrease, whether an item sat in the heap or on the stack of
// items tied with the last pop.
func TestHeapPopsNondecreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		var h pqHeap
		pushed := 0
		for v := 0; v < 1+rng.Intn(4); v++ {
			h.pushTied(pqItem{v: v, dist: 0})
			pushed++
		}
		last, popped := 0.0, 0
		for h.len() > 0 {
			it := h.pop()
			popped++
			if it.dist < last {
				t.Fatalf("trial %d: popped %g after %g", trial, it.dist, last)
			}
			last = it.dist
			for k := rng.Intn(3); k > 0 && pushed < 200; k-- {
				rc := 0.0
				if rng.Intn(2) == 0 {
					rc = float64(1 + rng.Intn(5))
				}
				h.relax(pqItem{v: pushed, dist: it.dist + rc}, rc)
				pushed++
			}
		}
		if popped != pushed {
			t.Fatalf("trial %d: popped %d of %d items", trial, popped, pushed)
		}
	}
}

// TestCloneResolvesLikeOriginal clones random networks after their first
// solve and runs one supply sequence on the clone first, then on the
// original: every round must report the same stats, cost, flows and
// potentials on both, so a clone continues exactly where the original
// stood and solving it leaves the original untouched.
func TestCloneResolvesLikeOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n := 6 + rng.Intn(15)
		g := New(n)
		for v := 0; v < n; v++ {
			g.AddArc(v, (v+1)%n, Inf, float64(3+rng.Intn(4)))
		}
		for k := 3 * n; k > 0; k-- {
			capacity := float64(1 + rng.Intn(4))
			if rng.Float64() < 0.3 {
				capacity = Inf
			}
			g.AddArc(rng.Intn(n), rng.Intn(n), capacity, float64(rng.Intn(5)))
		}
		m := len(g.pend)
		// Odd rounds move one unit pair, so they route a delta through
		// the flow the previous round left (the clone's first round
		// included); even rounds change most supplies and reset the flow.
		supplies := make([][]float64, 7)
		for round := range supplies {
			s := make([]float64, n)
			pairs := n
			if round%2 == 1 {
				copy(s, supplies[round-1])
				pairs = 1
			}
			for k := 0; k < pairs; k++ {
				u, v := rng.Intn(n), rng.Intn(n)
				d := float64(1 + rng.Intn(3))
				s[u] += d
				s[v] -= d
			}
			supplies[round] = s
		}
		if _, err := solve(g, supplies[0]); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		type outcome struct {
			cost  float64
			st    SolveStats
			flows []float64
			pot   []float64
		}
		run := func(h *Graph) []outcome {
			var out []outcome
			for round, s := range supplies[1:] {
				cost, err := solve(h, s)
				if err != nil {
					t.Fatalf("trial %d round %d: %v", trial, round+1, err)
				}
				o := outcome{cost: cost, st: h.Stats()}
				for id := 0; id < m; id++ {
					o.flows = append(o.flows, h.Flow(ArcID(id)))
				}
				pot, err := h.Potentials()
				if err != nil {
					t.Fatalf("trial %d round %d: potentials: %v", trial, round+1, err)
				}
				o.pot = append([]float64(nil), pot...)
				out = append(out, o)
			}
			return out
		}
		clone := run(g.Clone())
		orig := run(g)
		for round := range orig {
			c, o := clone[round], orig[round]
			if c.cost != o.cost || c.st != o.st {
				t.Fatalf("trial %d round %d: clone cost %g stats %+v, original %g %+v",
					trial, round+1, c.cost, c.st, o.cost, o.st)
			}
			for id := range o.flows {
				if c.flows[id] != o.flows[id] {
					t.Fatalf("trial %d round %d: arc %d flow %g on the clone, %g on the original",
						trial, round+1, id, c.flows[id], o.flows[id])
				}
			}
			for v := range o.pot {
				if c.pot[v] != o.pot[v] {
					t.Fatalf("trial %d round %d: pot[%d] %g on the clone, %g on the original",
						trial, round+1, v, c.pot[v], o.pot[v])
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Clone of an unsolved network did not panic")
		}
	}()
	New(2).Clone()
}
