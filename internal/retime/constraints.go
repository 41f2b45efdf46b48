package retime

import (
	"context"
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
	// Sweeps counts the per-source W/D sweeps clock generation ran;
	// Abandoned counts the sources it skipped without one, because no
	// path out of them can exceed the period.
	Sweeps, Abandoned int64

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

// SourceMem is the work accounting of clock-constraint generation, surfaced
// as obs gauges and stage counters.
type SourceMem struct {
	// DenseBytes, Hits and Evictions are always 0. They measured the
	// retired dense W/D engine and row cache, and stay only so existing
	// readers of the accounting keep compiling.
	DenseBytes int64
	Hits       int64
	Evictions  int64
	// Sweeps and Abandoned are the generation pass's counts
	// (Constraints.Sweeps, Constraints.Abandoned).
	Sweeps    int64
	Abandoned int64
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

// BuildConstraints assembles the full constraint system (edge weight, clock
// period, pinning) for target period T. The clock constraints are generated
// once, at T (the paper's §4.2), in one parallel pass:
//
//	r(u) − r(v) ≤ W(u,v) − 1  for every ordered pair with D(u,v) > T
//
// (Leiserson–Saxe condition 2), pruned by a dominance rule in the spirit of
// the Shenoy–Rudell / Maheshwari–Sapatnekar reductions: the pair (u,v) is
// dropped when v has a W-tight in-edge from some v' with D(u,v') > T,
// because then the (u,v') constraint plus the edge constraint (v',v)
// already imply it:
//
//	r(u) − r(v') ≤ W(u,v')−1  and  r(v') − r(v) ≤ w(e)
//	⟹ r(u) − r(v) ≤ W(u,v')−1+w(e) = W(u,v)−1  (tightness).
//
// Pruning chains terminate because tight edges form a DAG. Only the
// frontier where D first crosses T survives, which shrinks the system by
// orders of magnitude.
//
// The D entries are floating-point sums whose rounding scales with the
// magnitude of the path delay, so every comparison against T uses the
// relative activation threshold: a strict D(u,v) > T at exactly T = Tmin
// (itself a computed path-delay sum) would otherwise generate a spurious
// constraint and flip an achievable period to infeasible.
//
// Each GOMAXPROCS worker owns one W/D solver and claims sources u one at a
// time, running the delay-pruned sweep (graph.WDSolver.FromSourceAbove,
// cut at the threshold) and emitting u's constraints with v ascending; a
// source no path out of which can exceed the threshold is abandoned
// without a sweep. Rows are put together in u order, so the system does
// not depend on the worker count. Workers stop claiming sources once ctx
// is done, and the build then returns ctx.Err().
//
// ErrInfeasible is returned if some single vertex delay already exceeds T
// (no retiming can fix that).
func (rg *Graph) BuildConstraints(ctx context.Context, T float64) (*Constraints, error) {
	fT, err := rg.clockThreshold(T)
	if err != nil {
		return nil, err
	}
	rows, sweeps, abandoned, err := rg.clockRows(ctx, fT)
	if err != nil {
		return nil, err
	}
	cs := rg.assemble(rows...)
	cs.Sweeps, cs.Abandoned = sweeps, abandoned
	return cs, nil
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

// assemble puts the edge constraints, the clock constraints (given as
// consecutive chunks) and the pin constraints together, in that order.
func (rg *Graph) assemble(clock ...[]Constraint) *Constraints {
	edge := rg.EdgeConstraints()
	pin := rg.PinConstraints()
	nclock := 0
	for _, c := range clock {
		nclock += len(c)
	}
	cs := &Constraints{
		N:          rg.N(),
		Cons:       make([]Constraint, 0, len(edge)+nclock+len(pin)),
		EdgeCount:  len(edge),
		ClockCount: nclock,
		PinCount:   len(pin),
	}
	cs.Cons = append(cs.Cons, edge...)
	for _, c := range clock {
		cs.Cons = append(cs.Cons, c...)
	}
	cs.Cons = append(cs.Cons, pin...)
	return cs
}

// clockPair is the candidate test of clock generation: given source u's
// W/D labels res, it reports whether destination v carries a constraint at
// activation threshold fT — v is reachable from u, D(u,v) > fT, and no
// W-tight in-edge (v',v) comes from a v' with D(u,v') > fT. Labels at or
// below fT may be understated (FromSourceAbove), which cannot change the
// verdict.
func (rg *Graph) clockPair(res []graph.WDDist, u, v int, fT float64) bool {
	wv := res[v].W
	if v == u || wv < 0 || res[v].D <= fT {
		return false
	}
	for _, ei := range rg.g.In(v) {
		e := rg.g.Edge(ei)
		if e.From == v || e.From == u {
			continue
		}
		if p := res[e.From]; p.W >= 0 && p.W+e.W == wv && p.D > fT {
			return false
		}
	}
	return true
}

// rowParallelThreshold is the vertex count below which clock generation
// runs on the calling goroutine (goroutine fan-out costs more than it
// saves on tiny graphs).
const rowParallelThreshold = 64

// clockWorker is one generation worker's scratch: its sweep solver and
// labels, and the constraints of the sources it claimed, row after row.
type clockWorker struct {
	sv                *graph.WDSolver
	res               []graph.WDDist
	cons              []Constraint
	sweeps, abandoned int64
}

// rowSpan locates source u's row: cons[lo:hi] of worker w.
type rowSpan struct{ w, lo, hi int }

// clockRows runs the one generation pass at threshold fT (see
// BuildConstraints) and returns the pruned clock constraints as rows in u
// order, v ascending inside each, with the pass's sweep and abandon
// counts.
func (rg *Graph) clockRows(ctx context.Context, fT float64) (rows [][]Constraint, sweeps, abandoned int64, err error) {
	n := rg.N()
	suffix := rg.g.DelaySuffixBound(rg.delay)
	nw := runtime.GOMAXPROCS(0)
	if n < rowParallelThreshold {
		nw = 1
	}
	workers := make([]clockWorker, nw)
	spans := make([]rowSpan, n)
	done := ctx.Done()
	var next atomic.Int64
	run := func(wi int) {
		w := &workers[wi]
		w.sv = graph.NewWDSolver(rg.g)
		w.res = make([]graph.WDDist, n)
		for {
			select {
			case <-done:
				return
			default:
			}
			u := int(next.Add(1)) - 1
			if u >= n {
				return
			}
			if !w.sv.FromSourceAbove(u, rg.delay, fT, suffix, w.res) {
				w.abandoned++
				continue
			}
			w.sweeps++
			lo := len(w.cons)
			for v := range w.res {
				if rg.clockPair(w.res, u, v, fT) {
					w.cons = append(w.cons, Constraint{U: u, V: v, Bound: w.res[v].W - 1})
				}
			}
			spans[u] = rowSpan{wi, lo, len(w.cons)}
		}
	}
	if nw == 1 {
		run(0)
	} else {
		var wg sync.WaitGroup
		for wi := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(wi)
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, 0, err
	}
	for i := range workers {
		sweeps += workers[i].sweeps
		abandoned += workers[i].abandoned
	}
	rows = make([][]Constraint, n)
	for u, s := range spans {
		rows[u] = workers[s.w].cons[s.lo:s.hi]
	}
	return rows, sweeps, abandoned, nil
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
