// Package mcr computes the maximum cycle ratio of a retiming graph:
//
//	MCR = max over cycles c of  delay(c) / registers(c)
//
// For a sequential circuit this is the classical iteration bound — no
// retiming can achieve a clock period below it, and (ignoring I/O-path
// limits) a period of MCR is always achievable. It is an informative lower
// bound to report next to Tmin.
//
// The implementation is a parametric shortest-path search (Lawler's
// binary search over the ratio λ): a cycle with delay(c) − λ·regs(c) > 0
// exists iff λ < MCR, and the existence test is a Bellman–Ford positive-
// cycle detection on edge lengths delay(u) − λ·w(e). Vertex delays are
// folded onto outgoing edges, matching the retiming convention that a
// cycle's delay is the sum of its vertex delays.
//
// Lawler's search is slow but shares no code with the planner, so it stays
// the independent oracle: check.Verify cross-checks the minimum-period
// retiming against it. The planner's period-search floor does not come
// from here but from retime.CycleBound, Howard's policy iteration over the
// same ratio, which the package tests check against this one.
package mcr

import (
	"math"

	"lacret/internal/retime"
)

// Result reports the maximum cycle ratio.
type Result struct {
	// Ratio is the maximum cycle ratio (0 when the graph is acyclic).
	Ratio float64
	// HasCycle reports whether any cycle exists at all.
	HasCycle bool
}

// MaxCycleRatio computes the maximum delay-to-register ratio over all
// cycles of the graph to within eps (<=0 selects 1e-6). Well-formed
// retiming graphs have at least one register on every cycle, so the ratio
// is finite.
func MaxCycleRatio(rg *retime.Graph, eps float64) Result {
	if eps <= 0 {
		eps = 1e-6
	}
	n := rg.N()
	type edge struct {
		from, to int
		w        int
		d        float64
	}
	var edges []edge
	hi := 0.0 // upper bound: total delay over min registers (1) on a cycle
	total := 0.0
	for i := 0; i < rg.M(); i++ {
		f, t, w := rg.Edge(i)
		edges = append(edges, edge{from: f, to: t, w: w, d: rg.Delay(f)})
	}
	for v := 0; v < n; v++ {
		total += rg.Delay(v)
	}
	hi = total
	if hi == 0 {
		hi = 1
	}

	// positiveCycle reports whether some cycle has Σ(d − λ·w) > 0.
	positiveCycle := func(lambda float64) bool {
		dist := make([]float64, n) // longest-path potentials from virtual root
		for iter := 0; iter <= n; iter++ {
			changed := false
			for _, e := range edges {
				if nd := dist[e.from] + e.d - lambda*float64(e.w); nd > dist[e.to]+1e-12 {
					dist[e.to] = nd
					changed = true
				}
			}
			if !changed {
				return false
			}
		}
		return true
	}

	if !hasCycle(rg) {
		return Result{Ratio: 0, HasCycle: false}
	}

	lo := 0.0
	for hi-lo > eps {
		mid := (lo + hi) / 2
		if positiveCycle(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return Result{Ratio: hi, HasCycle: true}
}

func hasCycle(rg *retime.Graph) bool {
	n := rg.N()
	indeg := make([]int, n)
	for i := 0; i < rg.M(); i++ {
		_, t, _ := rg.Edge(i)
		indeg[t]++
	}
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	removed := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		removed++
		for _, ei := range rg.Out(v) {
			_, t, _ := rg.Edge(ei)
			indeg[t]--
			if indeg[t] == 0 {
				queue = append(queue, t)
			}
		}
	}
	return removed != n
}

// LowerBoundsPeriod reports whether the given achieved minimum period is
// consistent with the cycle-ratio bound: Tmin >= MCR − eps. The gap above
// MCR, if any, comes from I/O-path constraints (pinned ports) and the
// integrality of register placement.
func LowerBoundsPeriod(rg *retime.Graph, tmin, eps float64) bool {
	r := MaxCycleRatio(rg, eps)
	if !r.HasCycle {
		return true
	}
	return tmin >= r.Ratio-math.Max(eps, 1e-6)
}
