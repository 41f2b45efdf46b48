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
// It is the tests' reference for the lazy engine: one exact, unpruned
// sweep per source (graph.WDSolver.FromSource) with no floor, no cache and
// no frontier pruning, against which LazySource rows, generated
// constraints and period searches are checked.
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

// oracleSource serves ConstraintSource rows assembled from the oracle
// matrices through the same candidate test the lazy engine uses, so any
// row difference is a sweep or pruning defect in the engine.
type oracleSource struct {
	rg    *Graph
	wd    *WD
	floor float64
	cut   float64
}

// newOracleSource wraps oracle matrices of rg as a ConstraintSource with
// the given period floor (0 serves every positive period).
func newOracleSource(rg *Graph, wd *WD, floor float64) ConstraintSource {
	return &oracleSource{rg: rg, wd: wd, floor: floor, cut: activation(floor)}
}

func (o *oracleSource) N() int         { return o.wd.N }
func (o *oracleSource) Floor() float64 { return o.floor }
func (o *oracleSource) Mem() SourceMem { return SourceMem{} }
func (o *oracleSource) Row(u int) []SourcePair {
	Wu, Du := o.wd.W[u], o.wd.D[u]
	var row []SourcePair
	for v := 0; v < o.wd.N; v++ {
		row = appendRowPair(o.rg, row, u, v, Wu[v], Du[v], o.cut,
			func(x int) (int32, float64) { return Wu[x], Du[x] })
	}
	sortRow(row)
	return row
}
