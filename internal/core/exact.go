package core

import (
	"context"
	"fmt"
	"math"

	"lacret/internal/retime"
)

// SolveExact solves the LAC-retiming instance exactly by enumerating all
// feasible integral labelings with interval propagation over the
// difference constraints of the problem's cut pool, keeping those whose
// retimed graph meets Tclk — the ILP the paper proves the problem to be
// (§4.2: "it is a integer linear programming problem, which is
// NP-Complete"). It minimizes N_FOA with N_F as tie-breaker.
//
// The search is exponential; it exists to measure the optimality gap of
// the paper's adaptive-weight heuristic on small instances (see the
// ablation tests). Use Solve for anything real.
func (p *Problem) SolveExact() (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	pool, err := p.pool(context.Background())
	if err != nil {
		return nil, err
	}
	cs := pool.Constraints()
	n := p.Graph.N()

	// Initial domains from the difference constraints: anchor at the
	// first pinned vertex (or vertex 0) and take shortest-path bounds in
	// both directions. Constraint r(u) − r(v) ≤ b gives, for any anchor a,
	// r(u) ≤ r(v) + b, so hi/lo bounds follow from Bellman–Ford over the
	// constraint graph from/to the anchor.
	anchor := 0
	for v := 0; v < n; v++ {
		if p.Graph.Pinned(v) {
			anchor = v
			break
		}
	}
	const inf = math.MaxInt32
	hi := make([]int, n)
	lo := make([]int, n)
	for v := range hi {
		hi[v] = inf
		lo[v] = -inf
	}
	hi[anchor], lo[anchor] = 0, 0
	for iter := 0; iter <= n+1; iter++ {
		changed := false
		for _, c := range cs.Cons {
			// r(U) <= r(V) + b tightens hi[U]; r(V) >= r(U) - b tightens lo[V].
			if hi[c.V] != inf && hi[c.V]+c.Bound < hi[c.U] {
				hi[c.U] = hi[c.V] + c.Bound
				changed = true
			}
			if lo[c.U] != -inf && lo[c.U]-c.Bound > lo[c.V] {
				lo[c.V] = lo[c.U] - c.Bound
				changed = true
			}
		}
		if !changed {
			break
		}
		if iter == n+1 {
			return nil, retime.ErrInfeasible{T: p.Tclk}
		}
	}
	for v := 0; v < n; v++ {
		if hi[v] == inf || lo[v] == -inf {
			// Unconstrained relative to the anchor (disconnected);
			// restrict to a small window around zero — larger labels only
			// move registers around without new placements on finite
			// graphs of this size.
			if hi[v] == inf {
				hi[v] = n
			}
			if lo[v] == -inf {
				lo[v] = -n
			}
		}
		if lo[v] > hi[v] {
			return nil, retime.ErrInfeasible{T: p.Tclk}
		}
	}

	// Bound the search space; SolveExact is for small instances only.
	space := 1.0
	for v := 0; v < n; v++ {
		space *= float64(hi[v] - lo[v] + 1)
		if space > 5e7 {
			return nil, fmt.Errorf("core: exact search space too large (%d vertices)", n)
		}
	}

	// Index constraints by vertex for incremental checking.
	consOf := make([][]retime.Constraint, n)
	for _, c := range cs.Cons {
		consOf[c.U] = append(consOf[c.U], c)
		consOf[c.V] = append(consOf[c.V], c)
	}

	r := make([]int, n)
	assigned := make([]bool, n)
	var best *Result
	var rec func(v int)
	rec = func(v int) {
		if v == n {
			// The pool relaxes the clock-period constraints, so a labeling
			// that satisfies it must still be timed.
			if p.Graph.CheckFeasible(r, p.Tclk) != nil {
				return
			}
			retimed, err := p.Graph.Apply(r)
			if err != nil {
				return
			}
			tileFF := p.TileFFCounts(retimed)
			nfoa, violated := p.Violations(tileFF)
			nf := retimed.TotalRegisters()
			if best == nil || nfoa < best.NFOA || (nfoa == best.NFOA && nf < best.NF) {
				best = &Result{
					R:        append([]int(nil), r...),
					Retimed:  retimed,
					NFOA:     nfoa,
					NF:       nf,
					TileFF:   tileFF,
					Violated: violated,
					NWR:      0,
				}
			}
			return
		}
		for val := lo[v]; val <= hi[v]; val++ {
			r[v] = val
			assigned[v] = true
			ok := true
			for _, c := range consOf[v] {
				if assigned[c.U] && assigned[c.V] && r[c.U]-r[c.V] > c.Bound {
					ok = false
					break
				}
			}
			if ok {
				rec(v + 1)
			}
			assigned[v] = false
		}
	}
	rec(0)
	if best == nil {
		return nil, retime.ErrInfeasible{T: p.Tclk}
	}
	// Normalize to the anchor (pinned vertices are fixed at 0 by their
	// domains already, since the anchor is pinned when any pin exists).
	return best, nil
}
