package retime

import (
	"context"
	"fmt"
)

// SharedMinAreaResult reports a fanout-sharing-aware minimum-area retiming.
type SharedMinAreaResult struct {
	// R is the labeling on the ORIGINAL graph's vertices.
	R []int
	// Retimed is the original graph retimed by R.
	Retimed *Graph
	// SharedRegisters is the register count under the sharing model:
	// one register chain per driver, of length max over its fanout edges.
	SharedRegisters int
	// EdgeRegisters is the plain per-edge register sum of the same
	// labeling, for comparison with the edge-independent model.
	EdgeRegisters int
}

// MinAreaShared solves minimum-area retiming under the fanout-sharing
// model (Leiserson–Saxe §8): registers on the fanout edges of one driver
// are realized as a single shared chain, so the area charged to a driver
// is max over its fanout edges of w_r(e) rather than the sum.
//
// The classical mirror-vertex construction reduces this to an ordinary
// weighted min-area retiming: every multi-fanout driver u with fanout
// weights w_i gets a mirror vertex m_u and edges
//
//	u  → m_u  weight Wmax(u) = max_i w_i   (cost A(u))
//	v_i → m_u weight Wmax(u) − w_i         (cost 0)
//
// with the original fanout edges at cost 0. For any labeling,
// w_r(u→m_u) = w_r(u→v_i) + w_r(v_i→m_u) ≥ max_i w_r(u→v_i); since m_u is
// otherwise unconstrained, minimizing the mirror edge's weight attains the
// max exactly, so the flow objective equals the shared register count.
//
// This is an extension beyond the paper, which treats fanout edges
// independently (its LAC accounting and Table 1 use the edge-independent
// model); it quantifies how much register area the sharing model saves.
func (rg *Graph) MinAreaShared(T float64) (*SharedMinAreaResult, error) {
	if err := rg.Validate(); err != nil {
		return nil, err
	}
	n := rg.N()
	ext := rg.Clone()
	// Mirror construction on the clone.
	costOf := map[int]float64{} // extended-graph edge index -> cost
	for u := 0; u < n; u++ {
		outs := rg.g.Out(u)
		if len(outs) == 0 {
			continue
		}
		wmax := 0
		for _, ei := range outs {
			if w := rg.g.Edge(ei).W; w > wmax {
				wmax = w
			}
		}
		m := ext.AddVertex(fmt.Sprintf("mirror:%s", rg.name[u]), KindUnit, 0)
		me := ext.AddEdge(u, m, wmax)
		costOf[me] = 1
		for _, ei := range outs {
			e := rg.g.Edge(ei)
			ext.AddEdge(e.To, m, wmax-e.W)
		}
	}

	// The mirror vertices have zero delay and no fanout, so the extended
	// graph's timing is the original's and its cut pool serves as usual.
	pool, err := NewCutPool(context.Background(), ext, T)
	if err != nil {
		return nil, err
	}
	cost := make([]float64, ext.M())
	for ei, c := range costOf {
		cost[ei] = c
	}
	res, err := NewMinAreaSolver(pool).resolveEdgeCosts(cost, false)
	if err != nil {
		return nil, err
	}

	// Project the labeling back onto the original vertices and recount.
	r := res.R[:n]
	retimed, err := rg.Apply(r)
	if err != nil {
		return nil, fmt.Errorf("retime: shared labeling invalid on original graph: %v", err)
	}
	out := &SharedMinAreaResult{
		R:             append([]int(nil), r...),
		Retimed:       retimed,
		EdgeRegisters: retimed.TotalRegisters(),
	}
	// Shared count: per driver, max over fanout edges of the retimed
	// weight.
	for u := 0; u < n; u++ {
		wmax := 0
		for _, ei := range retimed.g.Out(u) {
			if w := retimed.g.Edge(ei).W; w > wmax {
				wmax = w
			}
		}
		out.SharedRegisters += wmax
	}
	return out, nil
}

// SharedRegisterCount evaluates the sharing-model register count of a
// graph under its current weights: Σ over drivers of max fanout weight.
func (rg *Graph) SharedRegisterCount() int {
	total := 0
	for u := 0; u < rg.N(); u++ {
		wmax := 0
		for _, ei := range rg.g.Out(u) {
			if w := rg.g.Edge(ei).W; w > wmax {
				wmax = w
			}
		}
		total += wmax
	}
	return total
}
