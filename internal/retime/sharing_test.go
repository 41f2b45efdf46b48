package retime

import (
	"math/rand"
	"testing"
)

// fanoutStar: pi -> u -> {v1, v2, v3} -> po, with one register on each
// fanout edge of u. Edge-independent counting sees 3 registers; the
// sharing model sees a single shared register at u's output.
func fanoutStar() *Graph {
	rg := NewGraph()
	pi := rg.AddVertex("pi", KindPort, 0)
	u := rg.AddVertex("u", KindUnit, 1)
	v1 := rg.AddVertex("v1", KindUnit, 1)
	v2 := rg.AddVertex("v2", KindUnit, 1)
	v3 := rg.AddVertex("v3", KindUnit, 1)
	po := rg.AddVertex("po", KindPort, 0)
	rg.AddEdge(pi, u, 0)
	rg.AddEdge(u, v1, 1)
	rg.AddEdge(u, v2, 1)
	rg.AddEdge(u, v3, 1)
	rg.AddEdge(v1, po, 0)
	rg.AddEdge(v2, po, 0)
	rg.AddEdge(v3, po, 0)
	return rg
}

func TestSharedRegisterCount(t *testing.T) {
	rg := fanoutStar()
	if got := rg.TotalRegisters(); got != 3 {
		t.Fatalf("edge count %d", got)
	}
	if got := rg.SharedRegisterCount(); got != 1 {
		t.Fatalf("shared count %d", got)
	}
}

func TestMinAreaSharedCountsMax(t *testing.T) {
	rg := fanoutStar()
	res, err := rg.MinAreaShared(10)
	if err != nil {
		t.Fatal(err)
	}
	if res.SharedRegisters != 1 {
		t.Fatalf("shared registers %d, want 1 (labels %v)", res.SharedRegisters, res.R)
	}
	if err := rg.CheckFeasible(res.R, 10); err != nil {
		t.Fatal(err)
	}
	if res.Retimed.SharedRegisterCount() != res.SharedRegisters {
		t.Fatal("shared count inconsistent with retimed graph")
	}
}

func TestMinAreaSharedPrefersSharedPosition(t *testing.T) {
	// pi -> u -> {a, b} -> m -> po with a register on a->m and b->m.
	// Edge-independent min-area is indifferent between {a->m, b->m} (2
	// registers) and the merged position m->po (1). The sharing model has
	// a second option: u's fanout edges u->a, u->b can hold ONE shared
	// register. Either way the shared optimum is 1.
	rg := NewGraph()
	pi := rg.AddVertex("pi", KindPort, 0)
	u := rg.AddVertex("u", KindUnit, 1)
	a := rg.AddVertex("a", KindUnit, 1)
	b := rg.AddVertex("b", KindUnit, 1)
	m := rg.AddVertex("m", KindUnit, 1)
	po := rg.AddVertex("po", KindPort, 0)
	rg.AddEdge(pi, u, 0)
	rg.AddEdge(u, a, 0)
	rg.AddEdge(u, b, 0)
	rg.AddEdge(a, m, 1)
	rg.AddEdge(b, m, 1)
	rg.AddEdge(m, po, 0)
	res, err := rg.MinAreaShared(10)
	if err != nil {
		t.Fatal(err)
	}
	if res.SharedRegisters != 1 {
		t.Fatalf("shared registers %d, want 1", res.SharedRegisters)
	}
}

func TestMinAreaSharedRespectsPeriod(t *testing.T) {
	rg := fanoutStar()
	// T = 2: path u..v_i (delay 2) ok with register between; T=1.5 forces
	// a register after u AND before po... delays: u=1, v=1, so T=2 needs
	// registers on the fanout edges (u..v path = 2 <= T fine) — check a
	// tight-but-feasible target keeps feasibility.
	res, err := rg.MinAreaShared(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rg.CheckFeasible(res.R, 2); err != nil {
		t.Fatal(err)
	}
	p, _ := res.Retimed.Period()
	if p > 2+1e-9 {
		t.Fatalf("period %g", p)
	}
}

func TestMinAreaSharedInfeasible(t *testing.T) {
	rg := fanoutStar()
	if _, err := rg.MinAreaShared(0.5); err == nil {
		t.Fatal("infeasible period accepted")
	}
}

// TestSharedNeverWorseThanEdgeModel: the sharing optimum counted in the
// shared metric is <= the edge-independent optimum counted in the shared
// metric (it optimizes that metric directly), and both labelings are
// legal. Random graphs.
func TestSharedNeverWorseThanEdgeModel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		rg := randomGraph(rng, 4+rng.Intn(4), trial%2 == 0)
		p, err := rg.Period()
		if err != nil {
			t.Fatal(err)
		}
		T := p * (1 + rng.Float64())
		shared, err := rg.MinAreaShared(T)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		edge, err := rg.MinArea(T)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		edgeRetimed, err := rg.Apply(edge.R)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got, ref := shared.SharedRegisters, edgeRetimed.SharedRegisterCount(); got > ref {
			t.Fatalf("trial %d: shared optimum %d worse than edge-model labeling's shared count %d",
				trial, got, ref)
		}
		if err := rg.CheckFeasible(shared.R, T); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestSharedAgainstBruteForce verifies exact optimality of the mirror
// construction on tiny graphs.
func TestSharedAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		rg := randomGraph(rng, 3+rng.Intn(3), trial%2 == 1)
		p, err := rg.Period()
		if err != nil {
			t.Fatal(err)
		}
		T := p * (0.8 + rng.Float64()*0.5)
		res, err := rg.MinAreaShared(T)
		if err != nil {
			continue // infeasible target; brute force would agree (checked elsewhere)
		}
		best := -1
		labels := make([]int, rg.N())
		var rec func(i int)
		rec = func(i int) {
			if i == rg.N() {
				if rg.CheckFeasible(labels, T) != nil {
					return
				}
				applied, _ := rg.Apply(labels)
				if c := applied.SharedRegisterCount(); best < 0 || c < best {
					best = c
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
		if best < 0 {
			t.Fatalf("trial %d: solver found %d but brute force infeasible", trial, res.SharedRegisters)
		}
		if res.SharedRegisters != best {
			t.Fatalf("trial %d: solver %d, brute force %d", trial, res.SharedRegisters, best)
		}
	}
}
