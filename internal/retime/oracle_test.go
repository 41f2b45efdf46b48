package retime

import (
	"math"

	"lacret/internal/graph"
)

// WD holds the all-pairs minimum-latency / worst-delay matrices of a
// retiming graph (Leiserson–Saxe W and D): W[u][v] is the minimum register
// count over u→v paths (-1 if unreachable), and D[u][v] the maximum total
// vertex delay over paths attaining W[u][v], endpoints included.
//
// It is the tests' reference for constraint generation: one exact,
// unpruned sweep per source (graph.WDSolver.FromSource) with no frontier
// pruning, against which generated constraints and period searches are
// checked.
type WD struct {
	N int
	W [][]int32
	D [][]float64
}

// oracleWD builds the W/D matrices with one full sweep per source vertex.
func oracleWD(rg *Graph) *WD {
	n := rg.N()
	wd := &WD{N: n, W: make([][]int32, n), D: make([][]float64, n)}
	sv := graph.NewWDSolver(rg.g)
	res := make([]graph.WDDist, n)
	for u := 0; u < n; u++ {
		wd.W[u] = make([]int32, n)
		wd.D[u] = make([]float64, n)
		if rg.g.OutDegree(u) == 0 {
			// Unreachable entries carry W = -1 and D = -Inf, like the
			// general path below.
			for v := range wd.W[u] {
				wd.W[u][v] = -1
				wd.D[u][v] = math.Inf(-1)
			}
			wd.W[u][u] = 0
			wd.D[u][u] = rg.delay[u]
			continue
		}
		sv.FromSource(u, rg.delay, res)
		for v, d := range res {
			if d.W < 0 {
				wd.W[u][v] = -1
				wd.D[u][v] = math.Inf(-1)
			} else {
				wd.W[u][v] = int32(d.W)
				wd.D[u][v] = d.D
			}
		}
	}
	return wd
}

// MaxD returns the largest finite D value.
func (wd *WD) MaxD() float64 {
	m := 0.0
	for u := 0; u < wd.N; u++ {
		for v := 0; v < wd.N; v++ {
			if wd.W[u][v] >= 0 && wd.D[u][v] > m {
				m = wd.D[u][v]
			}
		}
	}
	return m
}

// oracleConstraints builds the expected constraint system at T straight
// from the oracle matrices: every (u,v) pair goes through the production
// candidate test (clockPair) on exact, unpruned labels, so any difference
// from BuildConstraints is a sweep, pruning or assembly defect in the
// generation pass.
func oracleConstraints(rg *Graph, wd *WD, T float64) (*Constraints, error) {
	fT, err := rg.clockThreshold(T)
	if err != nil {
		return nil, err
	}
	var clock []Constraint
	res := make([]graph.WDDist, wd.N)
	for u := 0; u < wd.N; u++ {
		for v := range res {
			res[v] = graph.WDDist{W: int(wd.W[u][v]), D: wd.D[u][v]}
		}
		for v := range res {
			if rg.clockPair(res, u, v, fT) {
				clock = append(clock, Constraint{U: u, V: v, Bound: res[v].W - 1})
			}
		}
	}
	return assemble(rg.N(), rg.EdgeConstraints(), clock, rg.PinConstraints()), nil
}
