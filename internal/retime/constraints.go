package retime

import (
	"fmt"
	"math"
	"sort"

	"lacret/internal/graph"
)

// Constraint encodes r(U) − r(V) ≤ Bound.
type Constraint struct {
	U, V  int
	Bound int
}

// Constraints is a difference-constraint system for a retiming graph at a
// fixed target period: the edge-weight constraints, clock-period
// constraints and pin constraints, in that order. A CutPool hands out the
// system it holds (CutPool.Constraints), whose clock constraints are the
// path cuts some labeling needed.
type Constraints struct {
	N    int // number of retiming variables (graph vertices)
	Cons []Constraint
	// Counts by origin, for diagnostics.
	EdgeCount, ClockCount, PinCount int

	// Solver-layout copy of Cons (us/vs/bounds triples), built on first
	// use so repeated Feasible probes against the same system do not
	// re-allocate it. Lazily rebuilt if Cons is mutated.
	us, vs, bs []int
}

// solverArrays returns the us/vs/bounds triple-array view of Cons, building
// and caching it on first use (or after Cons changed length).
func (cs *Constraints) solverArrays() (us, vs, bs []int) {
	if len(cs.us) != len(cs.Cons) {
		cs.us = make([]int, len(cs.Cons))
		cs.vs = make([]int, len(cs.Cons))
		cs.bs = make([]int, len(cs.Cons))
		for i, c := range cs.Cons {
			cs.us[i], cs.vs[i], cs.bs[i] = c.U, c.V, c.Bound
		}
	}
	return cs.us, cs.vs, cs.bs
}

// SourceMem is the work accounting of the retired clock-constraint
// generator. Every field is always 0: DenseBytes, Hits and Evictions
// measured the dense W/D engine and row cache, Sweeps and Abandoned the
// per-source W/D sweeps, none of which production runs since the cut pool
// replaced them. The type stays only so existing readers of the
// accounting keep compiling.
type SourceMem struct {
	DenseBytes int64
	Hits       int64
	Evictions  int64
	Sweeps     int64
	Abandoned  int64
}

// ErrInfeasible reports that no retiming satisfies the target period.
type ErrInfeasible struct {
	T float64
}

func (e ErrInfeasible) Error() string {
	return fmt.Sprintf("retime: no retiming achieves clock period %g", e.T)
}

// EdgeConstraints returns the nonnegativity constraints
// r(u) − r(v) ≤ w(e) for every edge (u,v), deduplicated to the tightest
// bound per ordered pair.
func (rg *Graph) EdgeConstraints() []Constraint {
	best := map[[2]int]int{}
	for i := 0; i < rg.M(); i++ {
		f, t, w := rg.Edge(i)
		if f == t {
			continue // self-loop: 0 <= w always holds
		}
		k := [2]int{f, t}
		if b, ok := best[k]; !ok || w < b {
			best[k] = w
		}
	}
	cons := make([]Constraint, 0, len(best))
	for k, b := range best {
		cons = append(cons, Constraint{U: k[0], V: k[1], Bound: b})
	}
	sortConstraints(cons)
	return cons
}

// PinConstraints ties all pinned vertices together (their labels must be
// equal; normalization later sets them to zero).
func (rg *Graph) PinConstraints() []Constraint {
	var first = -1
	var cons []Constraint
	for v := 0; v < rg.N(); v++ {
		if !rg.Pinned(v) {
			continue
		}
		if first == -1 {
			first = v
			continue
		}
		cons = append(cons, Constraint{U: v, V: first, Bound: 0}, Constraint{U: first, V: v, Bound: 0})
	}
	return cons
}

// clockThreshold validates T and the graph and returns T's activation
// threshold, or ErrInfeasible when a vertex delay exceeds it.
func (rg *Graph) clockThreshold(T float64) (float64, error) {
	if math.IsNaN(T) || T <= 0 {
		return 0, fmt.Errorf("retime: invalid target period %g", T)
	}
	if err := rg.Validate(); err != nil {
		return 0, err
	}
	fT := activation(T)
	if rg.MaxDelay() > fT {
		return 0, ErrInfeasible{T: T}
	}
	return fT, nil
}

// assemble puts the edge, clock and pin constraints of an n-vertex graph
// together, in that order.
func assemble(n int, edge, clock, pin []Constraint) *Constraints {
	cs := &Constraints{
		N:          n,
		Cons:       make([]Constraint, 0, len(edge)+len(clock)+len(pin)),
		EdgeCount:  len(edge),
		ClockCount: len(clock),
		PinCount:   len(pin),
	}
	cs.Cons = append(cs.Cons, edge...)
	cs.Cons = append(cs.Cons, clock...)
	cs.Cons = append(cs.Cons, pin...)
	return cs
}

// Feasible solves the constraint system with the worklist (SPFA)
// difference-constraint solver, returning a feasible integral labeling
// normalized so that pinned vertices (if any) are zero, or ok=false. The
// solver reports a negative cycle as soon as its parent forest closes, not
// after n+1 full Bellman–Ford passes, and its labeling is the unique
// component-wise maximum solution ≤ 0 before normalization.
func (cs *Constraints) Feasible(rg *Graph) (r []int, ok bool) {
	us, vs, bs := cs.solverArrays()
	x, ok, _ := graph.SolveDifferenceIntSPFA(cs.N, us, vs, bs)
	if !ok {
		return nil, false
	}
	normalize(rg, x)
	return x, true
}

// normalize shifts labels so pinned vertices sit at zero (all pinned labels
// are equal by construction); with no pinned vertex, vertex 0 is the anchor.
func normalize(rg *Graph, r []int) {
	ref := 0
	for v := 0; v < rg.N(); v++ {
		if rg.Pinned(v) {
			ref = v
			break
		}
	}
	if len(r) == 0 {
		return
	}
	off := r[ref]
	for i := range r {
		r[i] -= off
	}
}

func sortConstraints(cons []Constraint) {
	sort.Slice(cons, func(i, j int) bool {
		if cons[i].U != cons[j].U {
			return cons[i].U < cons[j].U
		}
		if cons[i].V != cons[j].V {
			return cons[i].V < cons[j].V
		}
		return cons[i].Bound < cons[j].Bound
	})
}
