package plan

import (
	"context"
	"sort"

	"lacret/internal/netlist"
	"lacret/internal/route"
	"lacret/internal/steiner"
	"lacret/internal/tile"
)

// routeStage assigns I/O pads to boundary cells, locates every collapsed
// unit on the grid, deduplicates the unit→unit connections, and globally
// routes the inter-block nets — longest Steiner estimate first, so
// multi-millimetre nets get clean embeddings before congestion builds up.
type routeStage struct{}

func (routeStage) Name() string { return stageRoute }

func (routeStage) Run(ctx context.Context, st *PlanState, cfg *Config) error {
	nl, g, col, pl := st.Netlist, st.Grid, st.Collapsed, st.Placement

	// --- Pads and unit cells -------------------------------------------
	padOfInput, padOfOutput := assignPads(nl, g)
	cellOfUnit := make(map[netlist.NodeID]int, len(col.Units))
	for _, id := range col.Units {
		if nl.Node(id).Kind == netlist.KindInput {
			cellOfUnit[id] = padOfInput[id]
			continue
		}
		b := st.BlockOf[id]
		cx, cy := pl.Center(b)
		cellOfUnit[id] = g.CellAt(cx, cy)
	}
	st.PadOfInput, st.PadOfOutput = padOfInput, padOfOutput
	st.CellOfUnit = cellOfUnit

	// --- Deduplicate connections ---------------------------------------
	seen := map[[2]int64]bool{}
	var conns []Conn
	for _, e := range col.Edges {
		k := [2]int64{int64(e.From), int64(e.To)}
		if seen[k] {
			continue
		}
		seen[k] = true
		conns = append(conns, Conn{From: e.From, To: e.To, W: e.W, SinkCell: cellOfUnit[e.To]})
	}
	for _, o := range col.OutputUnits {
		conns = append(conns, Conn{
			From: o.Driver, To: o.Output, W: o.W,
			SinkCell: padOfOutput[o.Output], ToOutput: true,
		})
	}
	st.Conns = conns

	// --- Global routing -------------------------------------------------
	netOfUnit := map[netlist.NodeID]int{}
	var rnets []route.Net
	for _, c := range conns {
		src := cellOfUnit[c.From]
		if src == c.SinkCell {
			continue
		}
		ni, ok := netOfUnit[c.From]
		if !ok {
			ni = len(rnets)
			netOfUnit[c.From] = ni
			rnets = append(rnets, route.Net{ID: ni, Source: src})
		}
		rnets[ni].Sinks = append(rnets[ni].Sinks, c.SinkCell)
	}
	var steinerTotal float64
	estimate := make([]float64, len(rnets))
	for i, rn := range rnets {
		pts := make([]steiner.Point, 0, len(rn.Sinks)+1)
		cx, cy := g.CellCenter(rn.Source)
		pts = append(pts, steiner.Point{X: cx, Y: cy})
		for _, s := range rn.Sinks {
			sx, sy := g.CellCenter(s)
			pts = append(pts, steiner.Point{X: sx, Y: sy})
		}
		stree, serr := steiner.Build(pts)
		if serr != nil {
			return serr
		}
		estimate[i] = stree.Length()
		steinerTotal += stree.Length()
	}
	order := make([]int, len(rnets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return estimate[order[a]] > estimate[order[b]] })
	ordered := make([]route.Net, len(rnets))
	newIndex := make([]int, len(rnets))
	for pos, old := range order {
		ordered[pos] = rnets[old]
		newIndex[old] = pos
	}
	for u, ni := range netOfUnit {
		netOfUnit[u] = newIndex[ni]
	}
	rres, err := route.RouteContext(ctx, g, ordered, route.Options{Capacity: cfg.RouteCapacity})
	if err != nil {
		return err
	}
	if rres.Truncated {
		st.noteTruncated(stageRoute)
	}
	st.Nets, st.NetOfUnit, st.Routing = ordered, netOfUnit, rres

	res := st.Result
	res.RouteWirelength = rres.Wirelength
	res.RouteOverflow = rres.Overflow
	res.InterBlockNets = len(rnets)
	res.SteinerEstimate = steinerTotal
	res.Routes = rres.Trees
	return nil
}

func (routeStage) Counters(st *PlanState) []Counter {
	res := st.Result
	cs := []Counter{
		{"nets", float64(res.InterBlockNets)},
		{"wirelength", res.RouteWirelength},
		{"overflow", float64(res.RouteOverflow)},
	}
	if r := st.Routing; r != nil { // nil when the stage failed
		cs = append(cs, Counter{"searches", float64(r.Searches)}, Counter{"settled", float64(r.Settled)})
	}
	return cs
}

// assignPads distributes primary inputs and outputs over the grid's
// boundary cells (inputs from the top-left going clockwise, outputs offset
// half a perimeter for separation). Each pad claims the first free
// boundary cell at or clockwise after its nominal position, so pads never
// share a cell while free cells remain — on grids whose perimeter is
// shorter than the pad count, leftover pads share their nominal cell.
func assignPads(nl *netlist.Netlist, g *tile.Grid) (map[netlist.NodeID]int, map[netlist.NodeID]int) {
	boundary := boundaryCells(g)
	ins := nl.InputIDs()
	outs := append([]netlist.NodeID(nil), nl.Outputs...)
	used := make(map[int]bool, len(ins)+len(outs))
	claim := func(pos int) int {
		for k := 0; k < len(boundary); k++ {
			c := boundary[(pos+k)%len(boundary)]
			if !used[c] {
				used[c] = true
				return c
			}
		}
		return boundary[pos%len(boundary)]
	}
	n := len(ins) + len(outs)
	padIn := make(map[netlist.NodeID]int, len(ins))
	padOut := make(map[netlist.NodeID]int, len(outs))
	for i, id := range ins {
		padIn[id] = claim((i * len(boundary)) / n)
	}
	off := len(boundary) / 2
	for i, id := range outs {
		padOut[id] = claim((off + (i*len(boundary))/n) % len(boundary))
	}
	return padIn, padOut
}

// boundaryCells lists the grid's perimeter cells clockwise from (0,0).
func boundaryCells(g *tile.Grid) []int {
	var cells []int
	r, c := 0, 0
	for ; c < g.Cols; c++ {
		cells = append(cells, r*g.Cols+c)
	}
	c = g.Cols - 1
	for r = 1; r < g.Rows; r++ {
		cells = append(cells, r*g.Cols+c)
	}
	r = g.Rows - 1
	for c = g.Cols - 2; c >= 0; c-- {
		cells = append(cells, r*g.Cols+c)
	}
	c = 0
	for r = g.Rows - 2; r >= 1; r-- {
		cells = append(cells, r*g.Cols+c)
	}
	return cells
}
