package retime

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"lacret/internal/graph"
)

// Constraint encodes r(U) − r(V) ≤ Bound.
type Constraint struct {
	U, V  int
	Bound int
}

// Constraints is a prepared constraint system for a retiming graph at a
// fixed target period. The paper's LAC heuristic builds this once and then
// re-solves weighted min-area retiming against it with varying weights
// (§4.2: "the clock period constraints are generated only once").
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

// ClockConstraints generates the period constraints for target T from a
// ConstraintSource: for every ordered pair (u,v) with D(u,v) > T,
// r(u) − r(v) ≤ W(u,v) − 1 (Leiserson–Saxe condition 2).
//
// Constraints are pruned by a dominance rule (in the spirit of the
// Shenoy–Rudell / Maheshwari–Sapatnekar reductions): the pair (u,v) is
// dropped when v has a W-tight in-edge from some v' with D(u,v') > T,
// because then the (u,v') constraint plus the edge constraint (v',v)
// already imply it:
//
//	r(u) − r(v') ≤ W(u,v')−1  and  r(v') − r(v) ≤ w(e)
//	⟹ r(u) − r(v) ≤ W(u,v')−1+w(e) = W(u,v)−1  (tightness).
//
// Pruning chains terminate because tight edges form a DAG. Only the
// frontier where D first crosses T survives, which shrinks the system by
// orders of magnitude. The candidate test and dominance rule live in the
// source's rows (SourcePair.DPrune), so generation reduces to a per-row
// activation filter. T must be above the source's floor (rows do not
// cover lower periods).
//
// Rows are independent, so they are read across GOMAXPROCS workers (Row
// is concurrency-safe by contract) and assembled in u order before the
// final sort; the system does not depend on the worker count.
//
// An error is returned if some single vertex delay already exceeds T (no
// retiming can fix that).
func (rg *Graph) ClockConstraints(T float64, src ConstraintSource) ([]Constraint, error) {
	n := rg.N()
	if src.N() != n {
		return nil, fmt.Errorf("retime: constraint source for %d vertices, graph has %d", src.N(), n)
	}
	// The D entries are floating-point sums whose rounding scales with the
	// magnitude of the path delay, so the T comparison needs a relative
	// tolerance: a strict D(u,v) > T at exactly T = Tmin (itself a computed
	// path-delay sum) would otherwise generate a spurious constraint and
	// flip an achievable period to infeasible.
	fT := activation(T)
	if rg.MaxDelay() > fT {
		return nil, ErrInfeasible{T: T}
	}
	if fT < activation(src.Floor()) {
		return nil, fmt.Errorf("retime: period %g below constraint source floor %g", T, src.Floor())
	}
	rows := make([][]Constraint, n)
	forEachRow(n, func(u int) {
		var row []Constraint
		for _, p := range src.Row(u) {
			if p.D <= fT {
				break // rows are D-descending: nothing further activates
			}
			if p.DPrune > fT {
				// Dominance: a W-tight in-edge from a violating
				// predecessor means this constraint is implied.
				continue
			}
			row = append(row, Constraint{U: u, V: int(p.V), Bound: int(p.Bound)})
		}
		rows[u] = row
	})
	total := 0
	for _, row := range rows {
		total += len(row)
	}
	cons := make([]Constraint, 0, total)
	for _, row := range rows {
		cons = append(cons, row...)
	}
	sortConstraints(cons)
	return cons, nil
}

// rowParallelThreshold is the vertex count below which forEachRow runs on
// the calling goroutine (goroutine fan-out costs more than it saves on
// tiny graphs).
const rowParallelThreshold = 64

// forEachRow calls f for every u in [0, n), fanning out across GOMAXPROCS
// workers that claim rows one at a time.
func forEachRow(n int, f func(u int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if n < rowParallelThreshold || workers <= 1 {
		for u := 0; u < n; u++ {
			f(u)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u := int(next.Add(1)) - 1
				if u >= n {
					return
				}
				f(u)
			}
		}()
	}
	wg.Wait()
}

// BuildConstraints assembles the full constraint system (edge weight, clock
// period, pinning) for target period T. src serves the clock-constraint
// rows; it must have been built for this graph, which must not have
// changed since, and T must be above its floor. A nil src builds a
// one-shot LazySource floored at T itself, so every T that passes the
// vertex-delay check — including one within the comparison tolerance
// below the maximum vertex delay — is above the floor. Callers that
// want the source's accounting (the planner's constraints stage) pass
// their own source floored at T.
func (rg *Graph) BuildConstraints(T float64, src ConstraintSource) (*Constraints, error) {
	if math.IsNaN(T) || T <= 0 {
		return nil, fmt.Errorf("retime: invalid target period %g", T)
	}
	if err := rg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		src = NewLazySource(rg, T, 0)
	}
	edge := rg.EdgeConstraints()
	clock, err := rg.ClockConstraints(T, src)
	if err != nil {
		return nil, err
	}
	pin := rg.PinConstraints()
	cs := &Constraints{
		N:          rg.N(),
		EdgeCount:  len(edge),
		ClockCount: len(clock),
		PinCount:   len(pin),
	}
	cs.Cons = append(cs.Cons, edge...)
	cs.Cons = append(cs.Cons, clock...)
	cs.Cons = append(cs.Cons, pin...)
	return cs, nil
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
