package retime

import (
	"math"

	"lacret/internal/graph"
)

// howardMaxIter caps the policy iterations of CycleBound. Howard's
// algorithm typically converges in a handful of iterations; the cap only
// guards against floating-point ties cycling forever, and the result stays
// a sound lower bound whenever it stops (it is the ratio of an explicit
// cycle).
const howardMaxIter = 1000

// CycleBound returns the iteration bound of the graph — the maximum cycle
// ratio Σd/Σw over its cycles, where a cycle's delay is the sum of its
// vertex delays and w its register count — as the exact ratio of an
// explicit cycle. No retiming achieves a period below the maximum cycle
// ratio (Papaefthymiou 1994), and an explicit cycle's ratio never exceeds
// that maximum, so the value is a sound lower bound on the minimum period.
// It is 0 for an acyclic graph and for one that fails Validate.
//
// The ratio comes from Howard's policy iteration (Cochet-Terrasson et al.
// 1998; Dasdan, TODAES 2004) restricted to the edges inside strongly
// connected components: a policy picks one out-edge per vertex, value
// determination evaluates the policy's cycles (their Σd/Σw, recomputed
// from the cycle itself) and the relative potentials of the vertices
// draining into them, and policy improvement first moves vertices towards
// successors with a larger cycle ratio, then along edges that raise the
// potential. Each iteration is O(V + E).
func (rg *Graph) CycleBound() float64 {
	if rg.Validate() != nil {
		return 0
	}
	n := rg.N()
	comp, _ := rg.g.SCC(func(graph.Edge) bool { return true })
	// Intra-SCC out-edges per vertex (CSR). A vertex has one iff it lies on
	// some cycle; only those take part in the policy.
	off := make([]int32, n+1)
	for _, e := range rg.g.Edges() {
		if comp[e.From] == comp[e.To] {
			off[e.From+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	m := off[n]
	if m == 0 {
		return 0
	}
	to, w := make([]int32, m), make([]float64, m)
	fill := append([]int32(nil), off[:n]...)
	for _, e := range rg.g.Edges() {
		if comp[e.From] == comp[e.To] {
			to[fill[e.From]], w[fill[e.From]] = int32(e.To), float64(e.W)
			fill[e.From]++
		}
	}
	d := rg.delay
	// Initial policy: the fewest-register out-edge, which favours the
	// register-light cycles that carry high ratios.
	pol := make([]int32, n)
	for v := 0; v < n; v++ {
		pol[v] = -1
		for e := off[v]; e < off[v+1]; e++ {
			if pol[v] < 0 || w[e] < w[pol[v]] {
				pol[v] = e
			}
		}
	}
	lam, x := make([]float64, n), make([]float64, n)
	state, pos := make([]uint8, n), make([]int32, n)
	var path []int32
	best := 0.0
	// evaluate is value determination: every policy cycle gets its ratio
	// (head potential 0), every other vertex inherits the ratio of the
	// cycle its policy path drains into and the potential along that path.
	evaluate := func() {
		const unseen, onPath, done = 0, 1, 2
		for i := range state {
			state[i] = unseen
		}
		for s := 0; s < n; s++ {
			if pol[s] < 0 || state[s] != unseen {
				continue
			}
			path = path[:0]
			v := int32(s)
			for state[v] == unseen {
				state[v], pos[v] = onPath, int32(len(path))
				path = append(path, v)
				v = to[pol[v]]
			}
			if state[v] == onPath {
				cyc := path[pos[v]:]
				var sd, sw float64
				for _, u := range cyc {
					sd += d[u]
					sw += w[pol[u]]
				}
				r := sd / sw
				if r > best {
					best = r
				}
				lam[v], x[v], state[v] = r, 0, done
				for j := len(cyc) - 1; j > 0; j-- {
					u := cyc[j]
					lam[u] = r
					x[u] = d[u] - r*w[pol[u]] + x[to[pol[u]]]
					state[u] = done
				}
				path = path[:pos[v]]
			}
			for j := len(path) - 1; j >= 0; j-- {
				u := path[j]
				nx := to[pol[u]]
				lam[u] = lam[nx]
				x[u] = d[u] - lam[u]*w[pol[u]] + x[nx]
				state[u] = done
			}
		}
	}
	tol := func(a float64) float64 { return 1e-12 * max(1, math.Abs(a)) }
	for iter := 0; iter < howardMaxIter; iter++ {
		evaluate()
		// Improvement by ratio: follow a successor draining into a cycle of
		// larger ratio.
		changed := false
		for u := 0; u < n; u++ {
			bestE, bestL := int32(-1), lam[u]+tol(lam[u])
			for e := off[u]; e < off[u+1]; e++ {
				if l := lam[to[e]]; l > bestL {
					bestE, bestL = e, l
				}
			}
			if bestE >= 0 {
				pol[u], changed = bestE, true
			}
		}
		if changed {
			continue
		}
		// Improvement by potential among equal-ratio successors.
		for u := 0; u < n; u++ {
			bestE, bestX := int32(-1), x[u]+tol(x[u])
			for e := off[u]; e < off[u+1]; e++ {
				v := to[e]
				if lam[v] < lam[u]-tol(lam[u]) {
					continue
				}
				if val := d[u] - lam[u]*w[e] + x[v]; val > bestX {
					bestE, bestX = e, val
				}
			}
			if bestE >= 0 && bestE != pol[u] {
				pol[u], changed = bestE, true
			}
		}
		if !changed {
			break
		}
	}
	return best
}

// PeriodFloor is the floor of the minimum-period search: no period below
// it is achievable by retiming. It is the larger of the maximum vertex
// delay and the iteration bound (CycleBound) less a margin of four period
// tolerances, clamped to the unretimed period. The margin covers the
// comparison tolerance of the probes (a probe at T treats path delays up
// to T + periodTol(T) as meeting T) and the rounding of the delay sums, so
// every period below the floor is infeasible under the same tolerant
// comparisons the constraint engines use.
func (rg *Graph) PeriodFloor() float64 {
	floor := rg.MaxDelay()
	if cb := rg.CycleBound(); cb-4*periodTol(cb) > floor {
		floor = cb - 4*periodTol(cb)
	}
	if p, err := rg.Period(); err == nil && p < floor {
		floor = p
	}
	return floor
}
