package retime

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"lacret/internal/graph"
)

// The one-shot clock-constraint generator: the full system at a period,
// built by per-source W/D sweeps. The planner solves on a CutPool instead;
// this generator is the tests' reference for the full system the pool
// relaxes.

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
	cs, _, _, err := rg.buildConstraintsCounted(ctx, T)
	return cs, err
}

// buildConstraintsCounted is BuildConstraints plus the generation pass's
// sweep and abandon counts.
func (rg *Graph) buildConstraintsCounted(ctx context.Context, T float64) (cs *Constraints, sweeps, abandoned int64, err error) {
	fT, err := rg.clockThreshold(T)
	if err != nil {
		return nil, 0, 0, err
	}
	rows, sweeps, abandoned, err := rg.clockRows(ctx, fT)
	if err != nil {
		return nil, 0, 0, err
	}
	var clock []Constraint
	for _, row := range rows {
		clock = append(clock, row...)
	}
	return assemble(rg.N(), rg.EdgeConstraints(), clock, rg.PinConstraints()), sweeps, abandoned, nil
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

// fullPool returns a cut pool at T that holds the full system
// (BuildConstraints) and no probe cuts: every clock constraint is placed
// with a key above any period, so the cut loop's first labeling already
// meets T and the solve is the full system's.
func fullPool(rg *Graph, T float64) (*CutPool, error) {
	cs, err := rg.BuildConstraints(context.Background(), T)
	if err != nil {
		return nil, err
	}
	if _, ok := cs.Feasible(rg); !ok {
		return nil, ErrInfeasible{T: T}
	}
	edge, pin := rg.EdgeConstraints(), rg.PinConstraints()
	p := &CutPool{rg: rg, t: T, fT: activation(T), edge: edge, pin: pin, fs: newFeasSolver(rg, edge, pin)}
	for _, c := range cs.Cons[cs.EdgeCount : cs.EdgeCount+cs.ClockCount] {
		p.fs.place(c.V, feasArc{u: int32(c.U), bound: int32(c.Bound), d: math.MaxFloat64})
	}
	return p, nil
}

// minAreaFull is the from-scratch weighted min-area solve at T on the full
// system, the oracle the cut loop must match label for label.
func minAreaFull(rg *Graph, T float64, area []float64) (*MinAreaResult, error) {
	pool, err := fullPool(rg, T)
	if err != nil {
		return nil, err
	}
	res, err := NewMinAreaSolver(pool).Resolve(area)
	if err != nil {
		return nil, err
	}
	if res.Cuts != 0 {
		return nil, fmt.Errorf("retime: the full system at %g left %d paths too long", T, res.Cuts)
	}
	return res, nil
}

// minAreaAt is the production weighted min-area solve at T: the cut loop
// on a pool probed at T.
func minAreaAt(rg *Graph, T float64, area []float64) (*MinAreaResult, error) {
	pool, err := NewCutPool(context.Background(), rg, T)
	if err != nil {
		return nil, err
	}
	return NewMinAreaSolver(pool).Resolve(area)
}
