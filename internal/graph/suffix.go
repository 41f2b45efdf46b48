package graph

import "math"

// DelaySuffixBound returns, per vertex v, an upper bound on the total delay
// of the vertices strictly after v on any path leaving v (so
// delay[v] + suffix[v] bounds the delay of every path starting at v,
// endpoints included). The bound is exact on the acyclic part of the graph
// (a reverse-topological longest-delay DP over the SCC condensation) and
// +Inf for every vertex inside — or reaching — a cyclic strongly connected
// component, where the longest simple path is not tractable.
//
// The bound ignores edge weights entirely: it holds for any path, in
// particular for the register-minimal paths whose delays the W/D sweeps
// maximize. That is what makes it a sound pruning certificate for the
// delay-cut sweeps (FromSourceAbove): if delay[s] + suffix[s] <= cut, no
// path out of s can accumulate delay above cut.
func (g *Digraph) DelaySuffixBound(delay []float64) []float64 {
	comp, ncomp := g.SCC(func(Edge) bool { return true })
	cyclic := make([]bool, ncomp)
	size := make([]int, ncomp)
	for v := 0; v < g.n; v++ {
		size[comp[v]]++
	}
	for c, s := range size {
		if s > 1 {
			cyclic[c] = true
		}
	}
	for _, e := range g.edges {
		if e.From == e.To {
			cyclic[comp[e.From]] = true
		}
	}
	// Component IDs are in reverse topological order of the condensation
	// (sinks first), so scanning vertices grouped by ascending component ID
	// sees every out-neighbor's suffix before it is needed. Bucket the
	// vertices by component with a counting pass.
	start := make([]int, ncomp+1)
	for v := 0; v < g.n; v++ {
		start[comp[v]+1]++
	}
	for c := 0; c < ncomp; c++ {
		start[c+1] += start[c]
	}
	order := make([]int, g.n)
	fill := append([]int(nil), start[:ncomp]...)
	for v := 0; v < g.n; v++ {
		order[fill[comp[v]]] = v
		fill[comp[v]]++
	}
	suffix := make([]float64, g.n)
	for _, v := range order {
		if cyclic[comp[v]] {
			suffix[v] = math.Inf(1)
			continue
		}
		s := 0.0
		for _, ei := range g.out[v] {
			t := g.edges[ei].To
			// comp[t] < comp[v] here (acyclic singleton, no self-loop),
			// so suffix[t] is final.
			if cand := delay[t] + suffix[t]; cand > s {
				s = cand
			}
		}
		suffix[v] = s
	}
	return suffix
}

// FromSourceAbove is FromSource with a delay-pruned frontier for consumers
// that only care about destinations v with D(s,v) > cut. suffix must come
// from DelaySuffixBound over the same graph and delays.
//
// Two prunes apply, both certified by the suffix bounds:
//
//   - Source abandonment: when delay[s] + suffix[s] <= cut, no path out of
//     s can exceed the cut, so the sweep is skipped entirely and the method
//     reports swept=false with res untouched.
//   - Frontier pruning: during the longest-delay phase, a vertex v whose
//     accumulated delay cannot be extended past the cut
//     (d[v] + suffix[v] <= cut) does not propagate its delay. Descendants
//     may end up with understated D values, but only where the true value
//     is itself <= cut: any path P with delay(P) > cut contains no prunable
//     vertex (for every y on P, d[y] >= delay of P's prefix and suffix[y]
//     >= delay of P's remainder, so d[y] + suffix[y] >= delay(P) > cut, by
//     induction along P), hence its full delay is propagated.
//
// Consequently every res[v].D strictly above cut is exactly the FromSource
// value, every other res[v].D is <= cut (possibly understated), and the W
// labels — whose phase is never pruned — are always exact.
func (sv *WDSolver) FromSourceAbove(s int, delay []float64, cut float64, suffix []float64, res []WDDist) (swept bool) {
	if delay[s]+suffix[s] <= cut {
		return false
	}
	g := sv.g
	const unreach = -1
	w := sv.w
	for i := range w {
		w[i] = unreach
	}
	// Phase 1: bucket-queue shortest paths for W — identical to FromSource
	// (pruning here would corrupt the register counts and the tightness
	// tests downstream consumers share with the exact all-pairs sweep).
	w[s] = 0
	bk := sv.buckets
	for i := range bk {
		bk[i] = bk[i][:0]
	}
	push := func(key, v int) {
		for key >= len(bk) {
			bk = append(bk, nil)
		}
		bk[key] = append(bk[key], v)
	}
	push(0, s)
	// Phase 1 also counts each reached vertex's tight in-edges (those on a
	// minimum-weight path): a vertex is relaxed from every reached
	// predecessor exactly once, at the predecessor's final W, and an
	// improvement restarts the count at the improving edge, so the count
	// left when phase 1 ends is the number of edges u→v with final
	// W(u) + w(e) == W(v).
	indeg := sv.indeg
	indeg[s] = 0
	reached := append(sv.reached[:0], s)
	for key := 0; key < len(bk); key++ {
		for i := 0; i < len(bk[key]); i++ {
			v := bk[key][i]
			if w[v] != key {
				continue
			}
			for _, ei := range g.out[v] {
				e := g.edges[ei]
				if e.W < 0 {
					panic("graph: WDFromSource requires nonnegative edge weights")
				}
				if nk, old := key+e.W, w[e.To]; old == unreach || nk < old {
					if old == unreach {
						reached = append(reached, e.To)
					}
					w[e.To] = nk
					indeg[e.To] = 1
					push(nk, e.To)
				} else if nk == old {
					indeg[e.To]++
				}
			}
		}
	}
	sv.buckets = bk
	sv.reached = reached
	// Phase 2: longest delay over tight edges. The topological traversal
	// (indegree bookkeeping) runs over the reached vertices only; only the
	// delay propagation from prunable vertices is skipped.
	d := sv.d
	queue := sv.queue[:0]
	for _, v := range reached {
		d[v] = math.Inf(-1)
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	d[s] = delay[s]
	processed := 0
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		processed++
		propagate := d[v]+suffix[v] > cut
		for _, ei := range g.out[v] {
			e := g.edges[ei]
			if w[e.From]+e.W != w[e.To] {
				continue
			}
			if propagate {
				if nd := d[v] + delay[e.To]; nd > d[e.To] {
					d[e.To] = nd
				}
			}
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	sv.queue = queue
	if processed != len(reached) {
		panic("graph: WDFromSource found a zero-weight cycle (combinational loop)")
	}
	for v := 0; v < g.n; v++ {
		if w[v] == unreach {
			res[v] = WDDist{W: -1, D: math.Inf(-1)}
		} else {
			res[v] = WDDist{W: w[v], D: d[v]}
		}
	}
	return true
}
