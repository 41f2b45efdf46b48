package mcr

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lacret/internal/bench89"
	"lacret/internal/retime"
)

func ring(k int, d float64, regs int) *retime.Graph {
	rg := retime.NewGraph()
	for i := 0; i < k; i++ {
		rg.AddVertex("u", retime.KindUnit, d)
	}
	for i := 0; i < k-1; i++ {
		rg.AddEdge(i, i+1, 0)
	}
	rg.AddEdge(k-1, 0, regs)
	return rg
}

func TestRingRatio(t *testing.T) {
	// 4 vertices of delay 2, 2 registers: MCR = 8/2 = 4.
	rg := ring(4, 2, 2)
	r := MaxCycleRatio(rg, 1e-8)
	if !r.HasCycle {
		t.Fatal("cycle not found")
	}
	if math.Abs(r.Ratio-4) > 1e-6 {
		t.Fatalf("ratio %g, want 4", r.Ratio)
	}
}

func TestAcyclicGraph(t *testing.T) {
	rg := retime.NewGraph()
	a := rg.AddVertex("a", retime.KindUnit, 3)
	b := rg.AddVertex("b", retime.KindUnit, 3)
	rg.AddEdge(a, b, 1)
	r := MaxCycleRatio(rg, 1e-8)
	if r.HasCycle || r.Ratio != 0 {
		t.Fatalf("acyclic graph: %+v", r)
	}
}

func TestTwoCyclesTakesWorse(t *testing.T) {
	// Cycle A: delay 6, 3 regs (ratio 2). Cycle B: delay 4, 1 reg (ratio 4).
	rg := retime.NewGraph()
	a0 := rg.AddVertex("a0", retime.KindUnit, 3)
	a1 := rg.AddVertex("a1", retime.KindUnit, 3)
	rg.AddEdge(a0, a1, 1)
	rg.AddEdge(a1, a0, 2)
	b0 := rg.AddVertex("b0", retime.KindUnit, 2)
	b1 := rg.AddVertex("b1", retime.KindUnit, 2)
	rg.AddEdge(b0, b1, 0)
	rg.AddEdge(b1, b0, 1)
	r := MaxCycleRatio(rg, 1e-8)
	if math.Abs(r.Ratio-4) > 1e-6 {
		t.Fatalf("ratio %g, want 4", r.Ratio)
	}
}

func TestSelfLoop(t *testing.T) {
	rg := retime.NewGraph()
	v := rg.AddVertex("v", retime.KindUnit, 5)
	rg.AddEdge(v, v, 2)
	r := MaxCycleRatio(rg, 1e-8)
	if math.Abs(r.Ratio-2.5) > 1e-6 {
		t.Fatalf("ratio %g, want 2.5", r.Ratio)
	}
}

// TestMCRLowerBoundsMinPeriod: on random graphs, the achieved minimum
// period is never below the cycle-ratio bound, and without pinned ports
// the bound is achieved within rounding (registers are integral, so the
// attained period can exceed MCR by a fraction of a vertex delay).
func TestMCRLowerBoundsMinPeriod(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(5)
		rg := retime.NewGraph()
		for i := 0; i < n; i++ {
			rg.AddVertex("u", retime.KindUnit, float64(1+rng.Intn(4)))
		}
		for i := 0; i < n; i++ {
			j := (i + 1) % n
			w := rng.Intn(2)
			if j <= i && w == 0 {
				w = 1
			}
			rg.AddEdge(i, j, w)
		}
		for k := 0; k < n; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			w := rng.Intn(3)
			if b <= a && w == 0 {
				w = 1
			}
			rg.AddEdge(a, b, w)
		}
		if rg.Validate() != nil {
			continue
		}
		tmin, _, _, err := rg.MinPeriod(context.Background(), 1e-5)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !LowerBoundsPeriod(rg, tmin, 1e-5) {
			r := MaxCycleRatio(rg, 1e-8)
			t.Fatalf("trial %d: Tmin %g below MCR %g", trial, tmin, r.Ratio)
		}
	}
}

// TestMCRAgainstBruteForce enumerates simple cycles on tiny graphs.
func TestMCRAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(3)
		rg := retime.NewGraph()
		delays := make([]float64, n)
		for i := 0; i < n; i++ {
			delays[i] = float64(1 + rng.Intn(5))
			rg.AddVertex("u", retime.KindUnit, delays[i])
		}
		type E struct {
			from, to, w int
		}
		var es []E
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j || rng.Float64() < 0.4 {
					continue
				}
				w := rng.Intn(3)
				if j <= i && w == 0 {
					w = 1
				}
				es = append(es, E{i, j, w})
				rg.AddEdge(i, j, w)
			}
		}
		// Brute force over simple cycles via DFS.
		best := 0.0
		found := false
		var path []int
		onPath := make([]bool, n)
		var dfs func(start, v int, delay float64, regs int)
		dfs = func(start, v int, delay float64, regs int) {
			for _, e := range es {
				if e.from != v {
					continue
				}
				if e.to == start {
					d := delay + 0.0
					r := regs + e.w
					if r > 0 {
						ratio := d / float64(r)
						if ratio > best {
							best = ratio
						}
						found = true
					}
					continue
				}
				if e.to < start || onPath[e.to] {
					continue // canonical: cycles rooted at smallest vertex
				}
				onPath[e.to] = true
				path = append(path, e.to)
				dfs(start, e.to, delay+delays[e.to], regs+e.w)
				path = path[:len(path)-1]
				onPath[e.to] = false
			}
		}
		for s := 0; s < n; s++ {
			onPath[s] = true
			dfs(s, s, delays[s], 0)
			onPath[s] = false
		}
		got := MaxCycleRatio(rg, 1e-9)
		if !found {
			if got.HasCycle {
				t.Fatalf("trial %d: solver found a cycle, brute force none", trial)
			}
			continue
		}
		if !got.HasCycle {
			t.Fatalf("trial %d: brute force found a cycle, solver none", trial)
		}
		if math.Abs(got.Ratio-best) > 1e-6 {
			t.Fatalf("trial %d: solver %g, brute force %g", trial, got.Ratio, best)
		}
	}
}

// bench89Graph builds the retiming graph of a catalog circuit with uniform
// delays in [1, 5].
func bench89Graph(t *testing.T, name string) *retime.Graph {
	t.Helper()
	p, ok := bench89.ByName(name)
	if !ok {
		t.Fatalf("no catalog circuit %q", name)
	}
	nl, err := bench89.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	nl.AssignUniform(1.0, 5.0)
	col, err := nl.Collapse()
	if err != nil {
		t.Fatal(err)
	}
	rg, _, err := retime.FromCollapsed(nl, col)
	if err != nil {
		t.Fatal(err)
	}
	return rg
}

// randomCyclicGraph builds a random graph with real-valued delays, random
// register counts (every backward edge registered, so no combinational
// cycle) and optional registered self-loops.
func randomCyclicGraph(rng *rand.Rand) *retime.Graph {
	n := 2 + rng.Intn(10)
	rg := retime.NewGraph()
	for i := 0; i < n; i++ {
		rg.AddVertex("u", retime.KindUnit, rng.Float64()*5)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.7 {
				continue
			}
			w := rng.Intn(3)
			if j <= i && w == 0 {
				w = 1 + rng.Intn(2)
			}
			rg.AddEdge(i, j, w)
		}
	}
	return rg
}

// TestCycleBoundMatchesLawler: Howard's cycle bound agrees with Lawler's
// parametric search, and — being the ratio of an explicit cycle — never
// exceeds it, so it is a sound floor for the period search. "Never" is up
// to the oracle's own resolution: its positive-cycle test ignores gains
// below 1e-12, so its ratio can sit that far under the true maximum.
func TestCycleBoundMatchesLawler(t *testing.T) {
	const lawlerRes = 1e-11
	check := func(t *testing.T, rg *retime.Graph) bool {
		t.Helper()
		got := rg.CycleBound()
		want := MaxCycleRatio(rg, 1e-9)
		if !want.HasCycle {
			if got != 0 {
				t.Errorf("acyclic graph: CycleBound %g, want 0", got)
			}
			return !t.Failed()
		}
		if math.Abs(got-want.Ratio) > 1e-6 {
			t.Errorf("CycleBound %.12g, Lawler %.12g", got, want.Ratio)
		}
		if got > want.Ratio+lawlerRes*math.Max(1, want.Ratio) {
			t.Errorf("CycleBound %.17g exceeds Lawler %.17g", got, want.Ratio)
		}
		return !t.Failed()
	}
	t.Run("random", func(t *testing.T) {
		f := func(seed int64) bool {
			return check(t, randomCyclicGraph(rand.New(rand.NewSource(seed))))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("acyclic", func(t *testing.T) {
		rg := retime.NewGraph()
		a := rg.AddVertex("a", retime.KindUnit, 3)
		b := rg.AddVertex("b", retime.KindUnit, 4)
		c := rg.AddVertex("c", retime.KindUnit, 5)
		rg.AddEdge(a, b, 0)
		rg.AddEdge(b, c, 1)
		rg.AddEdge(a, c, 0)
		check(t, rg)
	})
	t.Run("self-loop", func(t *testing.T) {
		// A self-loop of ratio 2.5 beside a two-cycle of ratio 6/4.
		rg := retime.NewGraph()
		v := rg.AddVertex("v", retime.KindUnit, 5)
		a := rg.AddVertex("a", retime.KindUnit, 3)
		b := rg.AddVertex("b", retime.KindUnit, 3)
		rg.AddEdge(v, v, 2)
		rg.AddEdge(a, b, 1)
		rg.AddEdge(b, a, 3)
		rg.AddEdge(v, a, 0)
		if got := rg.CycleBound(); got != 2.5 {
			t.Fatalf("CycleBound %g, want 2.5", got)
		}
		check(t, rg)
	})
	for _, name := range []string{"s386", "s400", "s526", "s641", "s820", "s953", "s1196", "s1269", "s1423"} {
		t.Run(name, func(t *testing.T) {
			check(t, bench89Graph(t, name))
		})
	}
}
