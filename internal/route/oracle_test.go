package route

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lacret/internal/floorplan"
	"lacret/internal/obs"
	"lacret/internal/tile"
)

// heapRoute is the maze router as it stood before the bucket-queue
// search: one binary heap per search in (dist, cell) order, edge costs
// recomputed on every relaxation, and each path read back through the
// prev pointers of the strict-< relaxation. It is kept verbatim as the
// oracle the production router must reproduce bit for bit.
func heapRoute(ctx context.Context, g *tile.Grid, nets []Net, opt Options) (*Result, error) {
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

// oracleInstance is one seeded random routing instance: a grid of
// non-square tiles, nets of 1–6 sinks (some repeating a sink or naming
// their own source), and router options inside the validated range.
type oracleInstance struct {
	g    *tile.Grid
	nets []Net
	opt  Options
	// stop cuts the run at this rip-up round through a cancellable
	// context (0: run uncut); cancellable runs the never-firing
	// cancellable path instead of the plain one.
	stop        int
	cancellable bool
}

func newOracleInstance(t *testing.T, seed int64) oracleInstance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rows, cols := 1+rng.Intn(14), 2+rng.Intn(13)
	if rng.Intn(2) == 0 {
		rows, cols = cols, rows
	}
	pl := &floorplan.Placement{ChipW: float64(cols) * float64(60+rng.Intn(80)), ChipH: float64(rows) * float64(60+rng.Intn(80))}
	g, err := tile.Build(pl, nil, nil, tile.Params{Rows: rows, Cols: cols})
	if err != nil {
		t.Fatal(err)
	}
	cells := g.NumCells()
	var nets []Net
	for i, n := 0, 1+rng.Intn(4*cells/3+2); i < n; i++ {
		net := Net{ID: i, Source: rng.Intn(cells)}
		for j := 1 + rng.Intn(6); j > 0; j-- {
			switch rng.Intn(8) {
			case 0:
				net.Sinks = append(net.Sinks, net.Source)
			case 1:
				if len(net.Sinks) > 0 {
					net.Sinks = append(net.Sinks, net.Sinks[rng.Intn(len(net.Sinks))])
					continue
				}
				fallthrough
			default:
				net.Sinks = append(net.Sinks, rng.Intn(cells))
			}
		}
		nets = append(nets, net)
	}
	in := oracleInstance{g: g, nets: nets, opt: Options{
		Capacity:    float64(1 + rng.Intn(8)),
		MaxIters:    rng.Intn(13),
		HistoryStep: float64(1 + rng.Intn(2)),
	}}
	switch rng.Intn(3) {
	case 0:
		in.stop = 1 + rng.Intn(6)
	case 1:
		in.cancellable = true
	}
	return in
}

// run routes the instance with the given router under a fresh context.
func (in oracleInstance) run(router func(context.Context, *tile.Grid, []Net, Options) (*Result, error)) (*Result, error) {
	switch {
	case in.stop > 0:
		return router(&stopAfter{Context: context.Background(), n: in.stop, done: make(chan struct{})}, in.g, in.nets, in.opt)
	case in.cancellable:
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		return router(ctx, in.g, in.nets, in.opt)
	}
	return router(context.Background(), in.g, in.nets, in.opt)
}

// TestRouteMatchesHeapOracle routes seeded random instances with
// RouteContext and with the heap oracle and requires the same answer:
// every tree's parent map and every scalar result.
func TestRouteMatchesHeapOracle(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		in := newOracleInstance(t, seed)
		name := fmt.Sprintf("seed %d (%dx%d, %d nets, %+v, stop %d)", seed, in.g.Rows, in.g.Cols, len(in.nets), in.opt, in.stop)
		want, err := in.run(heapRoute)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		got, err := in.run(RouteContext)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Overflow != want.Overflow || got.MaxUsage != want.MaxUsage || got.Wirelength != want.Wirelength ||
			got.Iters != want.Iters || got.Truncated != want.Truncated {
			t.Fatalf("%s: overflow %d, max usage %g, wirelength %g, %d rounds, truncated %v; oracle %d, %g, %g, %d, %v",
				name, got.Overflow, got.MaxUsage, got.Wirelength, got.Iters, got.Truncated,
				want.Overflow, want.MaxUsage, want.Wirelength, want.Iters, want.Truncated)
		}
		if len(got.Trees) != len(want.Trees) {
			t.Fatalf("%s: %d trees, oracle %d", name, len(got.Trees), len(want.Trees))
		}
		for i := range got.Trees {
			if !reflect.DeepEqual(got.Trees[i], want.Trees[i]) {
				t.Fatalf("%s: net %d tree %v, oracle %v", name, i, got.Trees[i].Parent, want.Trees[i].Parent)
			}
		}
	}
}
