package graph

import (
	"math/rand"
	"slices"
	"testing"
)

func TestDigraphBasics(t *testing.T) {
	g := NewDigraph(3)
	if g.N() != 3 || g.M() != 0 {
		t.Fatalf("got N=%d M=%d, want 3,0", g.N(), g.M())
	}
	e0 := g.AddEdge(0, 1, 2, 1.5)
	e1 := g.AddEdge(1, 2, 0, 0.5)
	g.AddEdge(2, 0, 1, 0)
	if g.M() != 3 {
		t.Fatalf("M=%d, want 3", g.M())
	}
	if e := g.Edge(e0); e.From != 0 || e.To != 1 || e.W != 2 || e.Cost != 1.5 {
		t.Fatalf("edge0 = %+v", e)
	}
	if got := g.OutDegree(1); got != 1 {
		t.Fatalf("outdeg(1)=%d, want 1", got)
	}
	if got := g.InDegree(2); got != 1 {
		t.Fatalf("indeg(2)=%d, want 1", got)
	}
	g.SetEdgeW(e1, 7)
	if g.Edge(e1).W != 7 {
		t.Fatalf("SetEdgeW failed")
	}
	g.SetEdgeCost(e1, 9)
	if g.Edge(e1).Cost != 9 {
		t.Fatalf("SetEdgeCost failed")
	}
	v := g.AddVertex()
	if v != 3 || g.N() != 4 {
		t.Fatalf("AddVertex -> %d, N=%d", v, g.N())
	}
}

func TestDigraphAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := NewDigraph(2)
	g.AddEdge(0, 5, 0, 0)
}

func TestCloneIsDeep(t *testing.T) {
	g := NewDigraph(2)
	g.AddEdge(0, 1, 1, 1)
	c := g.Clone()
	c.SetEdgeW(0, 99)
	c.AddEdge(1, 0, 0, 0)
	if g.Edge(0).W != 1 {
		t.Fatal("clone shares edge storage")
	}
	if g.M() != 1 {
		t.Fatal("clone shares edge slice")
	}
}

// TestCloneAddEdgeKeepsLists: the clone's adjacency lists share one
// backing array per direction, so growing one of them must reallocate it
// rather than overwrite the next vertex's list, and must leave the
// original's lists alone.
func TestCloneAddEdgeKeepsLists(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := NewDigraph(6)
	for i := 0; i < 20; i++ {
		g.AddEdge(rng.Intn(6), rng.Intn(6), rng.Intn(3), 0)
	}
	snapshot := func(g *Digraph) (out, in [][]int) {
		for v := 0; v < g.N(); v++ {
			out = append(out, append([]int(nil), g.Out(v)...))
			in = append(in, append([]int(nil), g.In(v)...))
		}
		return out, in
	}
	gOut, gIn := snapshot(g)
	c := g.Clone()
	for from := 0; from < 6; from++ {
		to := 5 - from
		wantOut, wantIn := snapshot(c)
		e := c.AddEdge(from, to, 1, 0)
		wantOut[from] = append(wantOut[from], e)
		wantIn[to] = append(wantIn[to], e)
		for v := 0; v < 6; v++ {
			if !slices.Equal(c.Out(v), wantOut[v]) || !slices.Equal(c.In(v), wantIn[v]) {
				t.Fatalf("after AddEdge(%d, %d): vertex %d lists out %v in %v, want %v and %v",
					from, to, v, c.Out(v), c.In(v), wantOut[v], wantIn[v])
			}
			if !slices.Equal(g.Out(v), gOut[v]) || !slices.Equal(g.In(v), gIn[v]) {
				t.Fatalf("after AddEdge(%d, %d) on the clone: original vertex %d lists out %v in %v, want %v and %v",
					from, to, v, g.Out(v), g.In(v), gOut[v], gIn[v])
			}
		}
	}
}

func TestTopoOrderDAG(t *testing.T) {
	g := NewDigraph(4)
	g.AddEdge(0, 1, 0, 0)
	g.AddEdge(0, 2, 0, 0)
	g.AddEdge(1, 3, 0, 0)
	g.AddEdge(2, 3, 0, 0)
	order, ok := g.TopoOrder(func(Edge) bool { return true })
	if !ok {
		t.Fatal("DAG reported cyclic")
	}
	pos := make(map[int]int)
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("edge (%d,%d) violates topo order %v", e.From, e.To, order)
		}
	}
}

func TestTopoOrderCycleDetected(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1, 0, 0)
	g.AddEdge(1, 2, 0, 0)
	g.AddEdge(2, 0, 0, 0)
	if _, ok := g.TopoOrder(func(Edge) bool { return true }); ok {
		t.Fatal("cycle not detected")
	}
	// Excluding the back edge makes it acyclic.
	if _, ok := g.TopoOrder(func(e Edge) bool { return !(e.From == 2 && e.To == 0) }); !ok {
		t.Fatal("filtered subgraph should be acyclic")
	}
}

func TestTopoOrderFilteredByWeight(t *testing.T) {
	// Cycle exists but carries one weighted edge; zero-weight subgraph is
	// a DAG — exactly the retiming well-formedness condition.
	g := NewDigraph(3)
	g.AddEdge(0, 1, 0, 0)
	g.AddEdge(1, 2, 0, 0)
	g.AddEdge(2, 0, 1, 0)
	if _, ok := g.TopoOrder(func(e Edge) bool { return e.W == 0 }); !ok {
		t.Fatal("zero-weight subgraph should be acyclic")
	}
	if !g.HasCycle(func(Edge) bool { return true }) {
		t.Fatal("full graph should be cyclic")
	}
}

func TestSCC(t *testing.T) {
	// Two SCCs: {0,1,2} and {3}; 4 isolated.
	g := NewDigraph(5)
	g.AddEdge(0, 1, 0, 0)
	g.AddEdge(1, 2, 0, 0)
	g.AddEdge(2, 0, 0, 0)
	g.AddEdge(2, 3, 0, 0)
	comp, n := g.SCC(func(Edge) bool { return true })
	if n != 3 {
		t.Fatalf("ncomp=%d, want 3", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatalf("0,1,2 should share a component: %v", comp)
	}
	if comp[3] == comp[0] || comp[4] == comp[0] || comp[3] == comp[4] {
		t.Fatalf("3 and 4 should be singleton components: %v", comp)
	}
}

func TestSCCFiltered(t *testing.T) {
	g := NewDigraph(2)
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(1, 0, 0, 0)
	comp, n := g.SCC(func(e Edge) bool { return e.W == 0 })
	if n != 2 || comp[0] == comp[1] {
		t.Fatalf("filtered SCC wrong: comp=%v n=%d", comp, n)
	}
}

func TestWDFromSourceChain(t *testing.T) {
	// 0 -w1-> 1 -w0-> 2; delays 1,2,3.
	g := NewDigraph(3)
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(1, 2, 0, 0)
	delay := func(v int) float64 { return float64(v + 1) }
	wd := g.WDFromSource(0, delay)
	if wd[0].W != 0 || wd[0].D != 1 {
		t.Fatalf("wd[0]=%+v", wd[0])
	}
	if wd[1].W != 1 || wd[1].D != 3 {
		t.Fatalf("wd[1]=%+v", wd[1])
	}
	if wd[2].W != 1 || wd[2].D != 6 {
		t.Fatalf("wd[2]=%+v", wd[2])
	}
}

func TestWDFromSourceMaxDelayAtMinWeight(t *testing.T) {
	// Two 0-weight paths 0->3: via 1 (delay 5) and via 2 (delay 1).
	// D must take the worse (larger) one. A cheaper-W path does not exist.
	g := NewDigraph(4)
	g.AddEdge(0, 1, 0, 0)
	g.AddEdge(1, 3, 0, 0)
	g.AddEdge(0, 2, 0, 0)
	g.AddEdge(2, 3, 0, 0)
	delays := []float64{1, 5, 1, 1}
	wd := g.WDFromSource(0, func(v int) float64 { return delays[v] })
	if wd[3].W != 0 || wd[3].D != 7 {
		t.Fatalf("wd[3]=%+v, want {0 7}", wd[3])
	}
}

func TestWDFromSourcePrefersLowerW(t *testing.T) {
	// 0->3 via 1: weight 0, delay huge. Via 2: weight 1, small delay.
	// W must be 0 and D the delay of the weight-0 path.
	g := NewDigraph(4)
	g.AddEdge(0, 1, 0, 0)
	g.AddEdge(1, 3, 0, 0)
	g.AddEdge(0, 2, 1, 0)
	g.AddEdge(2, 3, 0, 0)
	delays := []float64{1, 100, 1, 1}
	wd := g.WDFromSource(0, func(v int) float64 { return delays[v] })
	if wd[3].W != 0 || wd[3].D != 102 {
		t.Fatalf("wd[3]=%+v, want {0 102}", wd[3])
	}
}

func TestWDFromSourceUnreachable(t *testing.T) {
	g := NewDigraph(3)
	g.AddEdge(0, 1, 0, 0)
	wd := g.WDFromSource(0, func(int) float64 { return 1 })
	if wd[2].W != -1 {
		t.Fatalf("unreachable vertex has W=%d, want -1", wd[2].W)
	}
}

func TestWDFromSourceCycleThroughRegisters(t *testing.T) {
	// Cycle 0->1->0 with one register: fine; W(0,0) stays 0 (trivial path).
	g := NewDigraph(2)
	g.AddEdge(0, 1, 0, 0)
	g.AddEdge(1, 0, 1, 0)
	wd := g.WDFromSource(0, func(int) float64 { return 2 })
	if wd[0].W != 0 || wd[0].D != 2 {
		t.Fatalf("wd[0]=%+v", wd[0])
	}
	if wd[1].W != 0 || wd[1].D != 4 {
		t.Fatalf("wd[1]=%+v", wd[1])
	}
}

func TestWDFromSourceCombinationalCyclePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero-weight cycle")
		}
	}()
	g := NewDigraph(2)
	g.AddEdge(0, 1, 0, 0)
	g.AddEdge(1, 0, 0, 0)
	g.WDFromSource(0, func(int) float64 { return 1 })
}

// TestWDFromSourceAgainstBruteForce cross-checks W/D against exhaustive path
// enumeration on small random register-positive graphs.
func TestWDFromSourceAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(6)
		g := NewDigraph(n)
		delays := make([]float64, n)
		for i := range delays {
			delays[i] = float64(1 + rng.Intn(5))
		}
		// Random edges; forward (i<j) edges may have weight 0, back edges
		// must carry a register to keep zero-weight subgraph acyclic.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j || rng.Float64() < 0.5 {
					continue
				}
				w := rng.Intn(2)
				if j < i {
					w = 1 + rng.Intn(2)
				}
				g.AddEdge(i, j, w, 0)
			}
		}
		got := g.WDFromSource(0, func(v int) float64 { return delays[v] })
		// Brute force: BFS over (vertex, registers) states up to a register
		// budget; track max delay per (v, w) and then min-w per v.
		type state struct{ v, w int }
		best := map[state]float64{{0, 0}: delays[0]}
		maxW := 2*n + 4
		for changed := true; changed; {
			changed = false
			for st, d := range best {
				for _, ei := range g.Out(st.v) {
					e := g.Edge(ei)
					nw := st.w + e.W
					if nw > maxW {
						continue
					}
					ns := state{e.To, nw}
					nd := d + delays[e.To]
					if old, ok := best[ns]; !ok || nd > old+1e-12 {
						best[ns] = nd
						changed = true
					}
				}
			}
		}
		for v := 0; v < n; v++ {
			wantW, wantD := -1, 0.0
			for st, d := range best {
				if st.v != v {
					continue
				}
				if wantW == -1 || st.w < wantW || (st.w == wantW && d > wantD) {
					wantW, wantD = st.w, d
				}
			}
			if got[v].W != wantW {
				t.Fatalf("trial %d: W(0,%d)=%d, want %d", trial, v, got[v].W, wantW)
			}
			if wantW >= 0 && got[v].D != wantD {
				t.Fatalf("trial %d: D(0,%d)=%g, want %g", trial, v, got[v].D, wantD)
			}
		}
	}
}
