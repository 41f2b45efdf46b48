package graph

import (
	"fmt"
	"math"
)

// Worklist is a FIFO queue of vertex IDs with membership dedup: pushing a
// vertex already in the queue is a no-op, so each vertex appears at most
// once. It is the scan frontier of the SPFA-style difference-constraint
// solvers — only vertices whose label changed get rescanned, instead of the
// full O(n) sweeps of textbook Bellman–Ford. Buffers are reused across
// Reset, so a persistent solver runs its probes allocation-free.
type Worklist struct {
	q    []int32
	in   []bool
	head int
}

// NewWorklist returns a worklist over vertices [0, n).
func NewWorklist(n int) *Worklist {
	return &Worklist{q: make([]int32, 0, n), in: make([]bool, n)}
}

// Reset empties the worklist, keeping its buffers.
func (w *Worklist) Reset() {
	for _, v := range w.q[w.head:] {
		w.in[v] = false
	}
	w.q = w.q[:0]
	w.head = 0
}

// Push enqueues v unless it is already queued.
func (w *Worklist) Push(v int) {
	if w.in[v] {
		return
	}
	w.in[v] = true
	w.q = append(w.q, int32(v))
}

// Pop dequeues the next vertex, or returns ok=false when empty. The pop
// compacts lazily: consumed prefix space is reclaimed when the queue drains.
func (w *Worklist) Pop() (v int, ok bool) {
	if w.head >= len(w.q) {
		return 0, false
	}
	v = int(w.q[w.head])
	w.head++
	w.in[v] = false
	if w.head == len(w.q) {
		w.q = w.q[:0]
		w.head = 0
	}
	return v, true
}

// Len returns the number of queued vertices.
func (w *Worklist) Len() int { return len(w.q) - w.head }

// FindParentCycle looks for a cycle in a parent forest (parent[v] < 0 marks
// a root) and returns its vertices in parent order, or nil when the forest
// is acyclic. During difference-constraint relaxation the parent pointers
// record, for each vertex, the constraint that last tightened it; a cycle in
// that forest corresponds to a negative-weight constraint cycle, i.e. an
// infeasible system. O(n) with two color sweeps.
func FindParentCycle(parent []int32) []int32 {
	const (
		white = 0 // unvisited
		gray  = 1 // on the current walk
		black = 2 // finished, known cycle-free
	)
	color := make([]uint8, len(parent))
	for s := range parent {
		if color[s] != white {
			continue
		}
		// Walk up the parent chain, graying vertices; hitting gray means
		// the walk re-entered itself — extract the cycle.
		v := int32(s)
		for v >= 0 && color[v] == white {
			color[v] = gray
			v = parent[v]
		}
		if v >= 0 && color[v] == gray {
			cyc := []int32{v}
			for u := parent[v]; u != v; u = parent[u] {
				cyc = append(cyc, u)
			}
			return cyc
		}
		// Blacken the walked chain.
		u := int32(s)
		for u >= 0 && color[u] == gray {
			color[u] = black
			u = parent[u]
		}
	}
	return nil
}

// SolveDifferenceIntSPFA solves an integral system of difference
// constraints {x[us[i]] - x[vs[i]] <= bounds[i]} over n variables, returning
// an integral solution or ok=false if the system is infeasible. It runs a
// worklist (SPFA) instead of full Bellman–Ford passes, and detects
// infeasibility early: every n successful relaxations the parent forest is
// walked for a cycle (FindParentCycle), so a negative constraint cycle is
// reported as soon as the relaxation starts orbiting it rather than after
// n+1 full passes over every constraint — the case that dominates a
// binary search over clock periods, where most probes are infeasible.
// Between periodic checks, a per-vertex relaxation-path-length bound
// guarantees termination: every relaxation extends the parent walk by one
// arc, so a walk longer than n vertices must repeat a vertex, and a cycle
// of strict relaxations has negative weight.
//
// The returned assignment is the component-wise maximum solution with
// x <= 0 (the shortest-path potentials from a virtual source joined to every
// vertex by zero-length arcs). The third result counts successful
// relaxations.
func SolveDifferenceIntSPFA(n int, us, vs, bounds []int) (x []int, ok bool, relaxations int) {
	if len(us) != len(vs) || len(us) != len(bounds) {
		panic("graph: constraint slice length mismatch")
	}
	// CSR adjacency keyed by the V side: constraint x[u]-x[v] <= b is arc
	// v -> u of length b, rescanned whenever x[v] drops.
	head := make([]int32, n+1)
	for i := range vs {
		if us[i] < 0 || us[i] >= n || vs[i] < 0 || vs[i] >= n {
			panic(fmt.Sprintf("graph: constraint (%d,%d) out of range [0,%d)", us[i], vs[i], n))
		}
		head[vs[i]+1]++
	}
	for v := 0; v < n; v++ {
		head[v+1] += head[v]
	}
	arcU := make([]int32, len(us))
	arcB := make([]int, len(us))
	next := append([]int32(nil), head[:n]...)
	for i := range us {
		p := next[vs[i]]
		arcU[p], arcB[p] = int32(us[i]), bounds[i]
		next[vs[i]]++
	}
	x = make([]int, n)
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	plen := make([]int32, n)
	wl := NewWorklist(n)
	for v := 0; v < n; v++ {
		if head[v] < head[v+1] {
			wl.Push(v)
		}
	}
	checkEvery := n
	if checkEvery < 64 {
		checkEvery = 64
	}
	sinceCheck := 0
	for {
		v, okPop := wl.Pop()
		if !okPop {
			return x, true, relaxations
		}
		xv, pv := x[v], plen[v]
		for p := head[v]; p < head[v+1]; p++ {
			u := arcU[p]
			if nd := xv + arcB[p]; nd < x[u] {
				x[u] = nd
				parent[u] = int32(v)
				relaxations++
				sinceCheck++
				if plen[u] = pv + 1; plen[u] > int32(n) {
					// plen is a fast over-approximation of the parent-walk
					// depth (stale ancestor updates can inflate it); confirm
					// against the forest before declaring a cycle, and
					// deflate to the true depth when it was a false alarm.
					if FindParentCycle(parent) != nil {
						return nil, false, relaxations
					}
					plen[u] = parentDepth(parent, u)
					sinceCheck = 0
				}
				wl.Push(int(u))
			}
		}
		if sinceCheck >= checkEvery {
			sinceCheck = 0
			if FindParentCycle(parent) != nil {
				return nil, false, relaxations
			}
		}
	}
}

// parentDepth returns the number of arcs on the walk from u to its root in
// an acyclic parent forest.
func parentDepth(parent []int32, u int32) int32 {
	var d int32
	for v := parent[u]; v >= 0; v = parent[v] {
		d++
	}
	return d
}

// WDDist is the per-destination result of WDFromSource: the minimum register
// count W over all paths from the source, and the maximum accumulated vertex
// delay D over paths attaining that minimum. Unreachable vertices have W=-1.
type WDDist struct {
	W int     // registers along a minimum-latency path
	D float64 // worst-case delay at minimum latency (endpoint delays included)
}

// WDSolver runs repeated WDFromSource sweeps over one graph, reusing its
// working buffers between sources. A fresh WDFromSource call allocates six
// vertex-sized slices; an all-pairs W/D build does n of them, so the solver
// turns O(n²) allocations into O(n). A solver serves one goroutine at a
// time — parallel sweeps use one solver per worker.
type WDSolver struct {
	g       *Digraph
	w       []int
	d       []float64
	indeg   []int
	queue   []int
	buckets [][]int
	reached []int // FromSourceAbove: the vertices phase 1 reached
}

// NewWDSolver returns a solver bound to g.
func NewWDSolver(g *Digraph) *WDSolver {
	return &WDSolver{
		g:     g,
		w:     make([]int, g.n),
		d:     make([]float64, g.n),
		indeg: make([]int, g.n),
	}
}

// FromSource fills res (length g.N()) with the (W, D) labels from source s;
// delay[v] is the vertex delay. Semantics match WDFromSource.
//
// The computation is two-phase: a shortest-path pass on the nonnegative
// integer register counts, then a longest-path pass over the "tight"
// subgraph (edges on some minimum-weight path). Register counts are small
// integers, so the first phase uses Dial's bucket queue — a monotone scan of
// per-distance buckets — instead of a binary heap. The tight subgraph is
// acyclic whenever the input has no zero-weight cycle, which holds for any
// well-formed retiming graph (every cycle carries at least one register);
// this method panics otherwise.
func (sv *WDSolver) FromSource(s int, delay []float64, res []WDDist) {
	g := sv.g
	const unreach = -1
	w := sv.w
	for i := range w {
		w[i] = unreach
	}
	// Phase 1: bucket-queue shortest paths for W.
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
	for key := 0; key < len(bk); key++ {
		// Zero-weight edges append to the current bucket mid-scan; the
		// index loop picks those up.
		for i := 0; i < len(bk[key]); i++ {
			v := bk[key][i]
			if w[v] != key {
				continue // superseded by a shorter path
			}
			for _, ei := range g.out[v] {
				e := g.edges[ei]
				if e.W < 0 {
					panic("graph: WDFromSource requires nonnegative edge weights")
				}
				if nk := key + e.W; w[e.To] == unreach || nk < w[e.To] {
					w[e.To] = nk
					push(nk, e.To)
				}
			}
		}
	}
	sv.buckets = bk
	// Phase 2: longest delay over tight edges, in topological order of the
	// tight subgraph restricted to reachable vertices (Kahn's algorithm).
	indeg := sv.indeg
	for i := range indeg {
		indeg[i] = 0
	}
	for _, e := range g.edges {
		if w[e.From] != unreach && w[e.From]+e.W == w[e.To] {
			indeg[e.To]++
		}
	}
	d := sv.d
	for i := range d {
		d[i] = math.Inf(-1)
	}
	d[s] = delay[s]
	queue := sv.queue[:0]
	reachable := 0
	for v := 0; v < g.n; v++ {
		if w[v] == unreach {
			continue
		}
		reachable++
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	processed := 0
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		processed++
		for _, ei := range g.out[v] {
			e := g.edges[ei]
			if w[e.From]+e.W != w[e.To] {
				continue
			}
			if nd := d[v] + delay[e.To]; nd > d[e.To] {
				d[e.To] = nd
			}
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	sv.queue = queue
	if processed != reachable {
		panic("graph: WDFromSource found a zero-weight cycle (combinational loop)")
	}
	for v := 0; v < g.n; v++ {
		if w[v] == unreach {
			res[v] = WDDist{W: -1, D: math.Inf(-1)}
		} else {
			res[v] = WDDist{W: w[v], D: d[v]}
		}
	}
}

// WDFromSource computes, for every vertex v reachable from s, the pair
// (W(s,v), D(s,v)) used by Leiserson–Saxe retiming: W is the minimum total
// edge weight (register count) of any s→v path, and D is the maximum total
// vertex delay over paths of weight exactly W. The delays of both endpoints
// are included in D.
//
// One-shot convenience over WDSolver; repeated sweeps over the same graph
// should hold a solver to amortize the buffer allocations.
func (g *Digraph) WDFromSource(s int, delay func(v int) float64) []WDDist {
	ds := make([]float64, g.n)
	for v := range ds {
		ds[v] = delay(v)
	}
	res := make([]WDDist, g.n)
	NewWDSolver(g).FromSource(s, ds, res)
	return res
}
