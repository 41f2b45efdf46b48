// Package route implements congestion-aware global routing on the tile
// grid: Steiner trees grown by iterative maze routing (each sink is joined
// to the growing tree by a shortest congestion-weighted path), with
// negotiated-congestion rip-up and re-route in the style of PathFinder.
// This realizes the "global routing" step of the paper's interconnect
// planning flow; any timing-driven congestion-aware router could be
// substituted, as the paper notes.
package route

import (
	"context"
	"fmt"
	"sort"

	"lacret/internal/obs"
	"lacret/internal/tile"
)

// Net is a routing request between grid cells.
type Net struct {
	ID     int
	Source int
	Sinks  []int
}

// Options tunes the router.
type Options struct {
	// Capacity is the routing capacity per tile boundary in wires
	// (default 16).
	Capacity float64
	// MaxIters bounds rip-up and re-route rounds (default 8).
	MaxIters int
	// HistoryStep is the history-cost increment added to each overflowed
	// edge per round (default 1).
	HistoryStep float64
}

// Tree is a routed net: a set of grid cells with parent pointers toward
// the source.
type Tree struct {
	NetID  int
	Source int
	Parent map[int]int // cell -> parent cell; source maps to -1
}

// PathTo returns the cell sequence from the tree's source to the sink
// (inclusive). The sink must be part of the tree.
func (t *Tree) PathTo(sink int) ([]int, error) {
	var rev []int
	cur := sink
	for cur != -1 {
		rev = append(rev, cur)
		p, ok := t.Parent[cur]
		if !ok {
			return nil, fmt.Errorf("route: cell %d not in tree of net %d", cur, t.NetID)
		}
		cur = p
		if len(rev) > len(t.Parent)+1 {
			return nil, fmt.Errorf("route: parent cycle in tree of net %d", t.NetID)
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// Edges returns the undirected tile-boundary edges used by the tree.
func (t *Tree) Edges() [][2]int {
	var es [][2]int
	for c, p := range t.Parent {
		if p >= 0 {
			a, b := c, p
			if a > b {
				a, b = b, a
			}
			es = append(es, [2]int{a, b})
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
	return es
}

// Result is the outcome of routing all nets.
type Result struct {
	Trees []Tree
	// Overflow is the number of tile-boundary edges over capacity after
	// the final round.
	Overflow int
	// MaxUsage is the peak edge usage.
	MaxUsage float64
	// Wirelength is the total routed length (um) over all tree edges.
	Wirelength float64
	// Iters is the number of rip-up rounds performed.
	Iters int
	// Truncated marks an anytime result: the context expired before the
	// rip-up loop converged, and the trees are the best (lowest-overflow)
	// state seen across the completed rounds.
	Truncated bool
}

// PathLength returns the geometric length (um) of a cell path on grid g.
func PathLength(g *tile.Grid, path []int) float64 {
	l := 0.0
	for i := 1; i < len(path); i++ {
		if sameRow(g, path[i-1], path[i]) {
			l += g.TileW
		} else {
			l += g.TileH
		}
	}
	return l
}

func sameRow(g *tile.Grid, a, b int) bool { return a/g.Cols == b/g.Cols }

// edgeIndexer maps undirected boundary edges to dense indices:
// horizontal edges first (rows * (cols-1)), then vertical.
type edgeIndexer struct {
	rows, cols int
}

func (ei edgeIndexer) count() int {
	return ei.rows*(ei.cols-1) + (ei.rows-1)*ei.cols
}

// index returns the edge index between adjacent cells a, b (a != b).
func (ei edgeIndexer) index(a, b int) int {
	if a > b {
		a, b = b, a
	}
	ra, ca := a/ei.cols, a%ei.cols
	if b == a+1 && ca+1 < ei.cols { // horizontal
		return ra*(ei.cols-1) + ca
	}
	// vertical: b == a + cols
	return ei.rows*(ei.cols-1) + ra*ei.cols + ca
}

// neighbors appends the grid neighbors of cell c to buf.
func neighbors(g *tile.Grid, c int, buf []int) []int {
	r, col := c/g.Cols, c%g.Cols
	if col > 0 {
		buf = append(buf, c-1)
	}
	if col+1 < g.Cols {
		buf = append(buf, c+1)
	}
	if r > 0 {
		buf = append(buf, c-g.Cols)
	}
	if r+1 < g.Rows {
		buf = append(buf, c+g.Cols)
	}
	return buf
}

// queueItem is a maze-search queue entry. Entries are ordered by
// (dist, cell), a strict total order on the entries of one search: a cell
// is re-pushed only with a strictly smaller dist, so no two entries are
// equal.
type queueItem struct {
	dist float64
	cell int
}

func (a queueItem) less(b queueItem) bool {
	return a.dist < b.dist || (a.dist == b.dist && a.cell < b.cell)
}

// cellQueue is a binary min-heap of queueItems. Under the strict total
// order every pop returns the least entry of the queue's contents, so the
// pop sequence does not depend on push order or on the heap's layout.
type cellQueue []queueItem

func (q *cellQueue) push(it queueItem) {
	h := append(*q, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !it.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
	*q = h
}

func (q *cellQueue) pop() queueItem {
	h := *q
	top, last := h[0], h[len(h)-1]
	h = h[:len(h)-1]
	if n := len(h); n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1].less(h[c]) {
				c++
			}
			if !h[c].less(last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	*q = h
	return top
}

// Route routes all nets on the grid. Nets with no sinks (or only sinks
// equal to the source) produce single-cell trees. Routing is deterministic.
func Route(g *tile.Grid, nets []Net, opt Options) (*Result, error) {
	return RouteContext(context.Background(), g, nets, opt)
}

// RouteContext is Route as an anytime computation: the initial routing
// always completes (every sink connected), and the context's deadline is
// checked between rip-up rounds. On expiry the router stops, restores the
// lowest-overflow tree set seen across the completed rounds, and returns it
// with Result.Truncated set — no error. A context that can never be
// canceled (Done() == nil) skips the snapshot bookkeeping entirely and
// reproduces Route bit for bit.
func RouteContext(ctx context.Context, g *tile.Grid, nets []Net, opt Options) (*Result, error) {
	if opt.Capacity <= 0 {
		opt.Capacity = 16
	}
	if opt.MaxIters <= 0 {
		opt.MaxIters = 8
	}
	if opt.HistoryStep <= 0 {
		opt.HistoryStep = 1
	}
	for _, n := range nets {
		if n.Source < 0 || n.Source >= g.NumCells() {
			return nil, fmt.Errorf("route: net %d source %d out of range", n.ID, n.Source)
		}
		for _, s := range n.Sinks {
			if s < 0 || s >= g.NumCells() {
				return nil, fmt.Errorf("route: net %d sink %d out of range", n.ID, s)
			}
		}
	}

	ei := edgeIndexer{rows: g.Rows, cols: g.Cols}
	usage := make([]float64, ei.count())
	hist := make([]float64, ei.count())
	trees := make([]Tree, len(nets))

	// edgeCost is the negotiated congestion cost of using edge e.
	edgeCost := func(e int) float64 {
		c := 1.0 + hist[e]
		if over := usage[e] + 1 - opt.Capacity; over > 0 {
			c += over * over * 4
		}
		return c
	}

	// Per-call scratch, allocated once and reused by every search. A cell's
	// dist/prev are valid only while seen[cell] == epoch (one epoch per
	// search), and pend[cell] == netStamp marks the pending sinks of the
	// net being routed, so neither needs an O(cells) reset. par holds the
	// parent of each cell of the tree being grown; cells[i] lists net i's
	// tree cells in insertion order (source first) and edges[i] the
	// boundary edge from each non-source cell to its parent, so seeding,
	// rip-up and the overflow test read slices instead of Parent maps.
	numCells := g.NumCells()
	dist := make([]float64, numCells)
	prev := make([]int, numCells)
	par := make([]int, numCells)
	seen := make([]int, numCells)
	pend := make([]int, numCells)
	epoch, netStamp := 0, 0
	var queue cellQueue
	cells := make([][]int, len(nets))
	edges := make([][]int, len(nets))

	routeNet := func(i int) Tree {
		n := nets[i]
		netStamp++
		tc, te := append(cells[i][:0], n.Source), edges[i][:0]
		par[n.Source] = -1
		// Deduplicate sinks; drop those equal to the source.
		pending := 0
		for _, s := range n.Sinks {
			if s != n.Source && pend[s] != netStamp {
				pend[s] = netStamp
				pending++
			}
		}
		var buf [4]int
		for pending > 0 {
			// Multi-source Dijkstra from the current tree to the nearest
			// pending sink. The (dist, cell) order breaks ties by cell.
			epoch++
			queue = queue[:0]
			for _, c := range tc {
				seen[c], dist[c], prev[c] = epoch, 0, -1 // already in tree
				queue.push(queueItem{cell: c})
			}
			reached := -1
			for len(queue) > 0 {
				it := queue.pop()
				if it.dist > dist[it.cell] {
					continue
				}
				if pend[it.cell] == netStamp {
					reached = it.cell
					break
				}
				for _, nb := range neighbors(g, it.cell, buf[:0]) {
					e := ei.index(it.cell, nb)
					nd := it.dist + edgeCost(e)
					if seen[nb] != epoch || nd < dist[nb] {
						seen[nb], dist[nb], prev[nb] = epoch, nd, it.cell
						queue.push(queueItem{dist: nd, cell: nb})
					}
				}
			}
			if reached < 0 {
				break // unreachable (cannot happen on a connected grid)
			}
			// Splice the path into the tree and charge edge usage. Tree
			// cells are seeds at dist 0 and every edge costs at least 1, so
			// they keep prev == -1: each cell before the first one with
			// prev == -1 is new to the tree.
			for cur := reached; prev[cur] != -1; cur = prev[cur] {
				p := prev[cur]
				e := ei.index(cur, p)
				par[cur] = p
				usage[e]++
				tc, te = append(tc, cur), append(te, e)
			}
			pend[reached] = 0
			pending--
		}
		cells[i], edges[i] = tc, te
		parent := make(map[int]int, len(tc))
		for _, c := range tc {
			parent[c] = par[c]
		}
		return Tree{NetID: n.ID, Source: n.Source, Parent: parent}
	}

	// Observability handles: nil no-ops unless the caller installed a
	// recorder on the context. Each rip-up iteration (including the final
	// check-only one) becomes one "round" sub-stage span; the gauge tracks
	// the live overflow count for the debug listener.
	reg := obs.FromContext(ctx).Registry()
	gOver := reg.Gauge("route.overflow_edges")
	cRounds := reg.Counter("route.rounds")

	// Initial routing in net order.
	_, spInit := obs.StartSpan(ctx, "initial")
	spInit.SetAttr("nets", float64(len(nets)))
	for i := range nets {
		trees[i] = routeNet(i)
	}
	spInit.End()

	// Anytime bookkeeping: only when the context can actually fire does the
	// router snapshot the lowest-overflow state, so the common uncancelable
	// path copies no trees. A restore ends the loop, so the final tallies
	// below read the restored Parent maps, not the per-net scratch.
	track := ctx.Done() != nil
	bestOverflow := -1
	var bestTrees []Tree
	res := &Result{}
	over := make([]bool, ei.count())
	for iter := 1; ; iter++ {
		res.Iters = iter
		_, spRound := obs.StartSpan(ctx, "round")
		cRounds.Inc()
		// Find overflowed edges.
		numOver := 0
		for e, u := range usage {
			over[e] = u > opt.Capacity
			if over[e] {
				numOver++
			}
		}
		gOver.Set(float64(numOver))
		spRound.SetAttr("overflow_edges", float64(numOver))
		if track && (bestOverflow < 0 || numOver < bestOverflow) {
			bestOverflow = numOver
			bestTrees = snapshotTrees(trees)
		}
		if numOver == 0 || iter >= opt.MaxIters {
			spRound.End()
			break
		}
		if err := ctx.Err(); err != nil {
			res.Truncated = true
			// The snapshot above covers the current state, so a restore is
			// only needed when a strictly earlier round was better.
			if bestOverflow >= 0 && bestOverflow < numOver {
				trees = bestTrees
				for e := range usage {
					usage[e] = 0
				}
				for i := range trees {
					for c, p := range trees[i].Parent {
						if p >= 0 {
							usage[ei.index(c, p)]++
						}
					}
				}
			}
			spRound.End()
			break
		}
		for e, o := range over {
			if o {
				hist[e] += opt.HistoryStep
			}
		}
		// Rip up and re-route nets crossing overflowed edges.
		ripped := 0
		for i := range trees {
			crosses := false
			for _, e := range edges[i] {
				if over[e] {
					crosses = true
					break
				}
			}
			if crosses {
				for _, e := range edges[i] {
					usage[e]--
				}
				trees[i] = routeNet(i)
				ripped++
			}
		}
		spRound.SetAttr("ripped_nets", float64(ripped))
		spRound.End()
	}

	for _, u := range usage {
		if u > opt.Capacity {
			res.Overflow++
		}
		if u > res.MaxUsage {
			res.MaxUsage = u
		}
	}
	res.Trees = trees
	// Count edges and multiply once: summing TileW/TileH term by term in
	// map-iteration order would make the last bits of Wirelength depend on
	// Go's randomized map order.
	nh, nv := 0, 0
	for i := range trees {
		for c, p := range trees[i].Parent {
			if p < 0 {
				continue
			}
			if sameRow(g, c, p) {
				nh++
			} else {
				nv++
			}
		}
	}
	res.Wirelength = float64(nh)*g.TileW + float64(nv)*g.TileH
	return res, nil
}

// snapshotTrees deep-copies the routed trees (parent maps included) for the
// anytime best-state bookkeeping.
func snapshotTrees(trees []Tree) []Tree {
	out := make([]Tree, len(trees))
	for i, tr := range trees {
		cp := Tree{NetID: tr.NetID, Source: tr.Source, Parent: make(map[int]int, len(tr.Parent))}
		for c, p := range tr.Parent {
			cp.Parent[c] = p
		}
		out[i] = cp
	}
	return out
}
