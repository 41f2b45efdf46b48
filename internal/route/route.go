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
	"errors"
	"fmt"
	"math"
	"math/bits"
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
	// (default 16). Capacity and HistoryStep must be integers (at most
	// 2^31 − 1): edge costs are then integers, and the maze search queues
	// cells by integral distance. RouteContext returns ErrNotIntegral
	// otherwise.
	Capacity float64
	// MaxIters bounds rip-up and re-route rounds (default 8).
	MaxIters int
	// HistoryStep is the history-cost increment added to each overflowed
	// edge per round (default 1); an integer, as Capacity.
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
	// Searches is the number of maze searches run (one per sink joined to
	// a tree) and Settled the number of cells they expanded; both are
	// deterministic work counts.
	Searches, Settled int
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

// cellAdj lists a cell's grid neighbors and the edges to them.
type cellAdj struct {
	n      int32
	nb, ne [4]int32
}

// adjacency returns the neighbors and edges of every cell.
func (ei edgeIndexer) adjacency() []cellAdj {
	adj := make([]cellAdj, ei.rows*ei.cols)
	for c := range adj {
		r, col := c/ei.cols, c%ei.cols
		h := r*(ei.cols-1) + col                   // edge to the right neighbor
		v := ei.rows*(ei.cols-1) + r*ei.cols + col // edge to the neighbor below
		a := &adj[c]
		add := func(nb, e int) {
			a.nb[a.n], a.ne[a.n] = int32(nb), int32(e)
			a.n++
		}
		if col > 0 {
			add(c-1, h-1)
		}
		if col+1 < ei.cols {
			add(c+1, h)
		}
		if r > 0 {
			add(c-ei.cols, v-ei.cols)
		}
		if r+1 < ei.rows {
			add(c+ei.cols, v)
		}
	}
	return adj
}

// Route routes all nets on the grid. Nets with no sinks (or only sinks
// equal to the source) produce single-cell trees. Routing is deterministic.
func Route(g *tile.Grid, nets []Net, opt Options) (*Result, error) {
	return RouteContext(context.Background(), g, nets, opt)
}

// ErrNotIntegral reports a Capacity or HistoryStep that is not an integer
// below 2^31 (see Options).
var ErrNotIntegral = errors.New("route: capacity and history step must be integers below 2^31")

// RouteContext is Route as an anytime computation: the initial routing
// always completes (every sink connected), and the context's deadline is
// checked between rip-up rounds. On expiry the router stops, restores the
// lowest-overflow tree set seen across the completed rounds, and returns it
// with Result.Truncated set — no error. A context that can never be
// canceled (Done() == nil) skips the snapshot bookkeeping entirely and
// reproduces Route bit for bit.
//
// Each search is Dijkstra's algorithm on a bucket queue: edge costs are
// integers, kept per edge and updated wherever usage or history changes,
// and the queue is a circular array of one bucket per distance, 64·4^k
// buckets for the least k that exceeds the largest edge cost seen, a
// little over 4 bytes each (see bucketQueue). A path is read back from the
// reached sink through canonical parents (see parentOf), so no answer
// depends on the order of the cells within a bucket.
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
	for _, x := range []float64{opt.Capacity, opt.HistoryStep} {
		if x != math.Trunc(x) || x > math.MaxInt32 { // NaN and +Inf fail too; x > 0 here
			return nil, fmt.Errorf("%w: capacity %g, history step %g", ErrNotIntegral, opt.Capacity, opt.HistoryStep)
		}
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
	capacity, step := int(opt.Capacity), int(opt.HistoryStep)

	ei := edgeIndexer{rows: g.Rows, cols: g.Cols}
	trees := make([]Tree, len(nets))

	// Per edge: usage (wires routed across it), hist (its history cost)
	// and cost, the negotiated congestion cost of using it,
	// 1 + hist + 4·over² for an edge that one more wire would take over
	// capacity; setCost refreshes it after usage[e] or hist[e] changes.
	// maxCost is the largest cost any edge has had in this call.
	numEdges := ei.count()
	edgeState := make([]int, 3*numEdges)
	usage, hist, cost := edgeState[:numEdges], edgeState[numEdges:2*numEdges], edgeState[2*numEdges:]
	maxCost := 0
	setCost := func(e int) {
		c := 1 + hist[e]
		if over := usage[e] + 1 - capacity; over > 0 {
			c += over * over * 4
		}
		cost[e] = c
		maxCost = max(maxCost, c)
	}
	for e := range cost {
		setCost(e)
	}

	// Per-call scratch, allocated once and reused by every search (cs, see
	// cellState). cells[i] lists net i's tree cells in insertion order
	// (source first) and edges[i] the boundary edge from each non-source
	// cell to its parent, so seeding, rip-up and the overflow test read
	// slices instead of Parent maps. queue is the searches' bucket queue.
	numCells := g.NumCells()
	adj := ei.adjacency()
	cs := make([]cellState, numCells)
	epoch, netStamp := 0, 0
	queue := bucketQueue{entries: make([]bucketEntry, 0, numCells)}
	cells := make([][]int, len(nets))
	edges := make([][]int, len(nets))
	searches, settled := 0, 0

	routeNet := func(i int) Tree {
		n := nets[i]
		netStamp++
		tc, te := append(cells[i][:0], n.Source), edges[i][:0]
		cs[n.Source].par = -1
		// Deduplicate sinks; drop those equal to the source.
		pending := 0
		for _, s := range n.Sinks {
			if s != n.Source && cs[s].pend != netStamp {
				cs[s].pend = netStamp
				pending++
			}
		}
		for pending > 0 {
			// Multi-source Dijkstra from the current tree to the nearest
			// pending sink; of the pending sinks at the least distance the
			// least cell is reached.
			searches++
			epoch++
			queue.reset(maxCost)
			// sinkDist is the least distance at which a pending sink is
			// queued.
			sinkDist := math.MaxInt
			for _, c := range tc {
				cs[c].seen, cs[c].dist = epoch, 0 // already in tree
				queue.push(c, 0)
				if cs[c].pend == netStamp {
					sinkDist = 0
				}
			}
			reached := -1
			for d := 0; queue.live > 0; d++ {
				// Costs are at least 1, so settling distance d queues
				// nothing at d: the bucket is final. A cell queued again
				// at a smaller distance left a stale entry here.
				d = queue.next(d)
				first := queue.take(d)
				if d == sinkDist {
					for x := first; x >= 0; x = queue.entries[x].next {
						if c := int(queue.entries[x].cell); cs[c].dist == d && cs[c].pend == netStamp && (reached < 0 || c < reached) {
							reached = c
						}
					}
					queue.clear(d)
					break
				}
				for x := first; x >= 0; x = queue.entries[x].next {
					c := int(queue.entries[x].cell)
					if cs[c].dist != d {
						continue
					}
					settled++
					a := &adj[c]
					for k := range a.n {
						v, nd := int(a.nb[k]), d+cost[a.ne[k]]
						if cs[v].seen != epoch || nd < cs[v].dist {
							cs[v].seen, cs[v].dist = epoch, nd
							queue.push(v, nd)
							if cs[v].pend == netStamp {
								sinkDist = min(sinkDist, nd)
							}
						}
					}
				}
			}
			if reached < 0 {
				break // unreachable (cannot happen on a connected grid)
			}
			// Splice the path into the tree and charge edge usage. Tree
			// cells are the only cells at distance 0, so every cell of the
			// path before the first one at distance 0 is new to the tree.
			for cur := reached; cs[cur].dist > 0; {
				p, e := parentOf(cur, adj, cs, epoch, cost)
				cs[cur].par = p
				usage[e]++
				setCost(e)
				tc, te = append(tc, cur), append(te, e)
				cur = p
			}
			cs[reached].pend = 0
			pending--
		}
		cells[i], edges[i] = tc, te
		parent := make(map[int]int, len(tc))
		for _, c := range tc {
			parent[c] = cs[c].par
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
	// spanWork ends a span with the searches and settled cells since the
	// given totals as attrs.
	spanWork := func(sp *obs.Span, searches0, settled0 int) {
		sp.SetAttr("searches", float64(searches-searches0))
		sp.SetAttr("settled", float64(settled-settled0))
		sp.End()
	}

	// Initial routing in net order.
	_, spInit := obs.StartSpan(ctx, "initial")
	spInit.SetAttr("nets", float64(len(nets)))
	for i := range nets {
		trees[i] = routeNet(i)
	}
	spanWork(spInit, 0, 0)

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
		searches0, settled0 := searches, settled
		cRounds.Inc()
		// Find overflowed edges.
		numOver := 0
		for e, u := range usage {
			over[e] = u > capacity
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
			spanWork(spRound, searches0, settled0)
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
				for e := range cost {
					setCost(e)
				}
			}
			spanWork(spRound, searches0, settled0)
			break
		}
		for e, o := range over {
			if o {
				hist[e] += step
				setCost(e)
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
					setCost(e)
				}
				trees[i] = routeNet(i)
				ripped++
			}
		}
		spRound.SetAttr("ripped_nets", float64(ripped))
		spanWork(spRound, searches0, settled0)
	}

	maxUsage := 0
	for _, u := range usage {
		if u > capacity {
			res.Overflow++
		}
		maxUsage = max(maxUsage, u)
	}
	res.MaxUsage = float64(maxUsage)
	res.Searches, res.Settled = searches, settled
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

// cellState is a cell's scratch in RouteContext. dist is valid only
// while seen == the search's epoch, and pend == the net's stamp marks a
// pending sink of the net being routed, so neither needs a reset between
// searches. par is the cell's parent in the tree being grown.
type cellState struct {
	dist, seen, pend, par int
}

// bucketQueue is a circular Dial bucket queue of cells by integral
// distance. The bucket of distance d is the list that starts at entry
// head[d&mask] of entries and follows each entry's next (-1 ends it), and
// bit d&mask of occ is set while that bucket is non-empty, so next skips
// 64 empty buckets per word. A search's queued distances lie within the
// largest edge cost of the one being settled, so more buckets than that
// cost never hold two distances in one bucket; a power-of-two count
// makes d&mask the bucket of d.
type bucketQueue struct {
	head    []int32
	occ     []uint64
	entries []bucketEntry
	mask    int
	live    int // non-empty buckets
}

// bucketEntry is one queued cell and the entry queued before it in its
// bucket.
type bucketEntry struct {
	cell, next int32
}

// reset empties the queue for a search whose edge costs are at most
// maxCost, first growing it fourfold (from 64) until it is above
// maxCost.
func (q *bucketQueue) reset(maxCost int) {
	if len(q.head) <= maxCost {
		size := max(4*len(q.head), 64)
		for size <= maxCost {
			size *= 4
		}
		q.head = make([]int32, size)
		for b := range q.head {
			q.head[b] = -1
		}
		q.occ = make([]uint64, size/64)
		q.mask = size - 1
	}
	q.entries = q.entries[:0]
}

// push queues cell c at distance d.
func (q *bucketQueue) push(c, d int) {
	b := d & q.mask
	if q.head[b] < 0 {
		q.occ[b>>6] |= 1 << (b & 63)
		q.live++
	}
	q.entries = append(q.entries, bucketEntry{cell: int32(c), next: q.head[b]})
	q.head[b] = int32(len(q.entries) - 1)
}

// next returns the least distance at or after d whose bucket is
// non-empty; the queue must not be empty.
func (q *bucketQueue) next(d int) int {
	b := d & q.mask
	w := b >> 6
	if word := q.occ[w] >> (b & 63); word != 0 {
		return d + bits.TrailingZeros64(word)
	}
	d += 64 - b&63
	for {
		w = (w + 1) & (len(q.occ) - 1)
		if q.occ[w] != 0 {
			return d + bits.TrailingZeros64(q.occ[w])
		}
		d += 64
	}
}

// take empties the non-empty bucket of distance d and returns its first
// entry.
func (q *bucketQueue) take(d int) int32 {
	b := d & q.mask
	first := q.head[b]
	q.head[b] = -1
	q.occ[b>>6] &^= 1 << (b & 63)
	q.live--
	return first
}

// clear empties the buckets after distance d.
func (q *bucketQueue) clear(d int) {
	for q.live > 0 {
		d = q.next(d)
		q.take(d)
	}
}

// parentOf returns the canonical parent of path cell v (dist[v] > 0) and
// the edge to it: of v's tight neighbors u, those with dist[u] +
// cost(u, v) == dist[v], the one with the least (dist[u], u). Tight
// neighbors lie strictly closer than v, so their distances are final.
// This is the parent a heap search that pops cells in (dist, cell) order
// and relaxes on strict improvement would record: the first tight
// neighbor it settles.
func parentOf(v int, adj []cellAdj, cs []cellState, epoch int, cost []int) (int, int) {
	p, pe := -1, -1
	a := &adj[v]
	for k := range a.n {
		u, e := int(a.nb[k]), int(a.ne[k])
		if cs[u].seen != epoch || cs[u].dist+cost[e] != cs[v].dist {
			continue
		}
		if p < 0 || cs[u].dist < cs[p].dist || (cs[u].dist == cs[p].dist && u < p) {
			p, pe = u, e
		}
	}
	return p, pe
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
