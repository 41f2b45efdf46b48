// Package mcmf implements a minimum-cost flow solver using successive
// shortest paths with node potentials (Bellman–Ford for initial potentials,
// so negative arc costs are supported; Dijkstra on reduced costs thereafter).
//
// It is the workhorse behind (weighted) minimum-area retiming: the LP dual of
// the retiming problem is a transshipment problem on the constraint graph,
// and the optimal retiming labels are recovered from shortest-path potentials
// of the final residual network (see Potentials).
//
// The solver has one access pattern: add every arc, then SetSupply followed
// by Resolve, repeatedly. The first Resolve freezes the network into
// per-tail arc arrays and solves cold. Arc costs are fixed once solving
// starts, so the residual network and node potentials persist across calls
// and stay dual-feasible: a re-solve after a supply change runs successive
// shortest paths on the new imbalance from the previous flow instead of
// starting cold, and a re-solve that resets the flow keeps the previous
// optimum's potentials, which stay dual-feasible once the flow is gone.
// This is what makes the LAC reweighting loop cheap: the constraint network
// is built once and each round starts from the previous round's duals.
//
// Routing is phase-batched. Each phase runs one multi-source Dijkstra and
// raises the potentials so every shortest path has zero reduced cost, then
// routes that admissible subgraph by push-relabel: one reverse
// breadth-first search from the deficits labels every node with its
// admissible-arc distance to the nearest deficit, and the nodes with excess
// are discharged in highest-label order, each pushing along current arcs
// that descend one label and being relabeled (with the gap rule) when none
// is left. The exact labeling is redone only when the relabels have
// scanned as many arcs as the network holds. Labels persist for the whole
// phase, and a push moves flow one arc at a time, so the admissible region
// is neither rescanned per level nor retraced per augmenting path.
//
// The extracted labels (Potentials) do not depend on how a phase routes:
// every optimal flow's residual network spans the same optimal dual face,
// so a different flow decomposition leaves them unchanged. After the first
// solve they come from one Dijkstra on the maintained reduced costs;
// Bellman–Ford runs only for the cold start, where costs may be negative.
//
// Capacities, costs, and supplies are float64, but callers that need
// guaranteed termination and integral optima should supply integral values
// (the retiming packages scale their real-valued area weights to integers
// before calling in here).
package mcmf

import (
	"context"
	"errors"
	"fmt"
	"math"

	"lacret/internal/obs"
)

// Eps is the comparison tolerance for capacities and supplies. It is the
// solver's single numerical knob: every other tolerance derives from it.
const Eps = 1e-9

// costEps is the tolerance for cost-space comparisons (reduced costs,
// shortest-path label relaxations). Kept equal to Eps so the solver has one
// consistent notion of "numerically zero"; retiming callers scale their
// costs to integers, so any drift below this is pure floating-point noise.
const costEps = Eps

// ErrNegativeCycle is returned when the network contains a negative-cost
// cycle of unbounded capacity, making the problem unbounded (for retiming
// this means the constraint system is infeasible).
var ErrNegativeCycle = errors.New("mcmf: negative-cost cycle in network")

// ErrInfeasible is returned when the supplies cannot be routed (not enough
// capacity between sources and sinks).
var ErrInfeasible = errors.New("mcmf: flow infeasible, supplies cannot be routed")

// Inf is a convenience "infinite" capacity.
var Inf = math.Inf(1)

// ArcID identifies an arc added with AddArc.
type ArcID int

// pendArc is an arc added before the network froze; its capacity is kept
// in Graph.orig.
type pendArc struct {
	from, to int32
	cost     float64
}

// arc is one direction of a residual pair in the frozen network; arcs[rev]
// is its reverse.
type arc struct {
	to, rev int32
	cap     float64 // remaining capacity
	cost    float64
}

// SolveStats reports how the engine handled the most recent Resolve.
type SolveStats struct {
	// Warm is true when the solve reused the previous residual network and
	// potentials instead of starting from zero flow.
	Warm bool
	// SupplyChanged counts nodes whose supply changed since the previous
	// Resolve.
	SupplyChanged int
	// AugmentingPaths counts the pushes this Resolve made into a deficit.
	// A phase moves flow one arc at a time, so a push that reduces a
	// deficit ends one piece of a shortest augmenting path; the warm path
	// routes only the imbalance, so this still measures the work a warm
	// start saves.
	AugmentingPaths int
	// Phases counts the multi-source Dijkstra searches run by this
	// Resolve. Each phase settles every reachable deficit and then routes
	// the whole admissible subgraph, so (in exact arithmetic) Phases ≤
	// AugmentingPaths, usually by a wide margin.
	Phases int
	// Labelings counts the exact distance labelings this Resolve ran: one
	// reverse breadth-first search from the deficits in every phase that
	// settles a deficit, plus one per global relabel (a phase whose
	// relabels scanned more arcs than the network holds labels afresh).
	Labelings int
	// Scans counts the arc positions this Resolve examined in its
	// labelings, its relabels and its pushes' current-arc advances: the
	// deterministic measure of the routing kernel's work (the Dijkstra
	// searches are counted by Phases instead).
	Scans int
	// FlowReset is true when a warm solve dropped the previous flow: when
	// most supplies changed, re-routing from zero through a clean residual
	// beats threading the delta through the narrow reverse arcs the old
	// flow left behind. The reset keeps the previous optimum's potentials,
	// which stay dual-feasible on the cleared residual (see resetFlow), so
	// the new flow is routed along the old optimum's zero-cost region.
	FlowReset bool
}

// Graph is a min-cost flow network. The zero value is not usable; call New.
type Graph struct {
	n int
	// Arcs added so far (pend) and every arc's original capacity, indexed
	// by ArcID. The first Resolve or Potentials freezes pend into the
	// per-tail arrays below and drops it.
	pend   []pendArc
	orig   []float64
	frozen bool
	// The frozen residual network: the arcs leaving v are
	// arcs[start[v]:start[v+1]], forward and reverse halves in AddArc
	// order, and fwd[id] is the position of arc id's forward half.
	start []int32
	arcs  []arc
	fwd   []int32
	inc   bool // a Resolve has run

	// Incremental state: potentials and per-node imbalance (target supply
	// minus currently routed net outflow) persist across Resolve calls.
	pot     []float64
	excess  []float64
	supply  []float64
	pendSup int // nodes with supply changed since last Resolve
	stats   SolveStats
	ctx     context.Context // consulted between routing phases; nil = never

	// Per-phase scratch, reused across solves: Dijkstra labels and settled
	// marks, then the distance labels (label is a lower bound on a node's
	// admissible-arc distance to the nearest deficit, exact after each
	// labeling, n when none is reachable; count[k] is the number of nodes
	// labeled k, for the gap rule; cur is the current-arc pointer; queue is
	// the labeling BFS queue), and the active nodes (excess, label below
	// n) as one stack per label: head[k] is the top of label k's stack,
	// next links it downward, and top bounds the highest nonempty label.
	dist    []float64
	prevArc []int32
	visited []bool
	label   []int32
	count   []int32
	cur     []int32
	queue   []int32
	head    []int32
	next    []int32
	top     int32
	heap    pqHeap
}

// New returns a network with n nodes and no arcs.
func New(n int) *Graph {
	if n < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("mcmf: node count %d out of range", n))
	}
	return &Graph{n: n}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// AddArc adds a directed arc with the given capacity and per-unit cost and
// returns its identifier. Capacity may be mcmf.Inf. Every arc must be added
// before the first Resolve (or Potentials), which freezes the network.
func (g *Graph) AddArc(from, to int, capacity, cost float64) ArcID {
	if g.frozen {
		panic("mcmf: AddArc after the network froze (first Resolve or Potentials)")
	}
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("mcmf: arc (%d,%d) out of range [0,%d)", from, to, g.n))
	}
	if capacity < 0 {
		panic("mcmf: negative capacity")
	}
	if len(g.pend) >= math.MaxInt32/2 {
		panic("mcmf: too many arcs")
	}
	id := ArcID(len(g.pend))
	g.pend = append(g.pend, pendArc{from: int32(from), to: int32(to), cost: cost})
	g.orig = append(g.orig, capacity)
	return id
}

// freeze counting-sorts the added arcs into the per-tail residual arrays.
// Each tail's range lists its arcs' halves in AddArc order, as the
// adjacency lists of an append-built network would.
func (g *Graph) freeze() {
	if g.frozen {
		return
	}
	g.frozen = true
	start := make([]int32, g.n+1)
	for _, p := range g.pend {
		start[p.from+1]++
		start[p.to+1]++
	}
	for v := 0; v < g.n; v++ {
		start[v+1] += start[v]
	}
	pos := make([]int32, g.n)
	copy(pos, start)
	arcs := make([]arc, 2*len(g.pend))
	fwd := make([]int32, len(g.pend))
	for id, p := range g.pend {
		i := pos[p.from]
		pos[p.from]++
		j := pos[p.to]
		pos[p.to]++
		arcs[i] = arc{to: p.to, rev: j, cap: g.orig[id], cost: p.cost}
		arcs[j] = arc{to: p.from, rev: i, cap: 0, cost: -p.cost}
		fwd[id] = i
	}
	g.start, g.arcs, g.fwd, g.pend = start, arcs, fwd, nil
}

// Clone returns an independent copy of a solved network: the residual
// arcs (so the flow), the potentials, the imbalances and the supplies are
// copied, while the frozen topology and the original capacities, which no
// solve changes, are shared read-only. The next Resolve on the copy does
// exactly what it would have done on g, and g stays as it is. The copy has
// no context installed. Clone panics on a network that has not been
// solved.
func (g *Graph) Clone() *Graph {
	if !g.inc {
		panic("mcmf: Clone of a network that has not been solved")
	}
	return &Graph{
		n: g.n, orig: g.orig, frozen: true,
		start: g.start, arcs: append([]arc(nil), g.arcs...), fwd: g.fwd, inc: true,
		pot:     append([]float64(nil), g.pot...),
		excess:  append([]float64(nil), g.excess...),
		supply:  append([]float64(nil), g.supply...),
		pendSup: g.pendSup,
		stats:   g.stats,
	}
}

// tail returns the node arc position i leaves.
func (g *Graph) tail(i int32) int32 { return g.arcs[g.arcs[i].rev].to }

// Flow returns the flow routed through arc a after the last Resolve.
func (g *Graph) Flow(a ArcID) float64 {
	if !g.frozen {
		return 0
	}
	return g.arcs[g.arcs[g.fwd[a]].rev].cap
}

// Stats returns the counters of the most recent Resolve.
func (g *Graph) Stats() SolveStats { return g.stats }

// SetContext installs a cancellation context consulted between routing
// phases, so even a single pathological solve is interruptible: when the
// context is done, the in-flight Resolve returns its error. A nil
// context (the default) restores the uninterruptible behavior. After a
// context-aborted solve the residual state is undefined, like after any
// other solve error, and the network should be discarded.
func (g *Graph) SetContext(ctx context.Context) { g.ctx = ctx }

// SetSupply sets the target supply vector (supply[v] > 0 means v produces
// flow, < 0 means v consumes; the vector must sum to ~0). Only the delta
// against the previously set supplies becomes new routing work for the next
// Resolve. It returns an error on a length mismatch or an unbalanced
// vector.
func (g *Graph) SetSupply(supply []float64) error {
	if len(supply) != g.n {
		return fmt.Errorf("mcmf: supply length %d != node count %d", len(supply), g.n)
	}
	var total float64
	for _, s := range supply {
		total += s
	}
	if math.Abs(total) > 1e-6 {
		return fmt.Errorf("mcmf: supplies sum to %g, want 0", total)
	}
	g.ensureIncState()
	for v, s := range supply {
		if d := s - g.supply[v]; d > Eps || d < -Eps {
			g.excess[v] += d
			g.supply[v] = s
			g.pendSup++
		}
	}
	return nil
}

func (g *Graph) ensureIncState() {
	if g.excess == nil {
		g.excess = make([]float64, g.n)
		g.supply = make([]float64, g.n)
	}
}

// Resolve routes the currently set supplies at minimum total cost and
// returns the cost of the resulting flow. The first call freezes the
// network and solves cold (Bellman–Ford potentials, then phase-batched
// successive shortest paths); subsequent calls warm-start from the
// previous residual network and potentials: a localized supply change
// routes only the per-node imbalance, while a global one (most supplies
// changed) re-routes from zero flow through the already-built network (see
// SolveStats.FlowReset). After an error the residual state is undefined
// and the network should be discarded.
func (g *Graph) Resolve() (float64, error) {
	g.ensureIncState()
	st := SolveStats{
		Warm:          g.inc,
		SupplyChanged: g.pendSup,
	}
	g.pendSup = 0
	// One "mcmf-solve" span per Resolve, carrying the final SolveStats; its
	// children are the per-phase spans created in route. All no-ops (nil
	// span, nil counters) unless the installed context carries a recorder.
	sctx := context.Background()
	if g.ctx != nil {
		sctx = g.ctx
	}
	rctx, sp := obs.StartSpan(sctx, "mcmf-solve")
	defer func() {
		if sp == nil {
			return
		}
		sp.SetAttr("warm", b2f(st.Warm))
		sp.SetAttr("flow_reset", b2f(st.FlowReset))
		sp.SetAttr("supply_changed", float64(st.SupplyChanged))
		sp.SetAttr("phases", float64(st.Phases))
		sp.SetAttr("labelings", float64(st.Labelings))
		sp.SetAttr("augpaths", float64(st.AugmentingPaths))
		sp.SetAttr("scans", float64(st.Scans))
		sp.End()
		reg := obs.FromContext(sctx).Registry()
		reg.Counter("mcmf.phases").Add(int64(st.Phases))
		reg.Counter("mcmf.labelings").Add(int64(st.Labelings))
		reg.Counter("mcmf.augpaths").Add(int64(st.AugmentingPaths))
		reg.Counter("mcmf.scans").Add(int64(st.Scans))
	}()
	if !g.inc {
		g.inc = true
		g.freeze()
		pot, err := g.bellmanFord()
		if err != nil {
			g.stats = st
			return 0, err
		}
		g.pot = pot
	}
	// Adaptive warm start: a localized supply change routes fastest as a
	// delta through the existing flow, but a global one (e.g. a LAC
	// reweighting round, which perturbs every node's supply) routes fewer
	// and wider paths from zero flow. The reset keeps the live potentials,
	// so the new flow starts from the previous optimum's duals.
	if st.Warm && 4*st.SupplyChanged >= g.n {
		st.FlowReset = true
		g.resetFlow()
	}
	if err := g.route(rctx, &st); err != nil {
		g.stats = st
		return 0, err
	}
	g.stats = st
	return g.flowCost(), nil
}

// resetFlow drops the previous flow (the adaptive flow reset) but keeps the
// live potentials. At the previous optimum every residual arc has reduced
// cost ≥ 0, so once the flow is gone only a finite-capacity arc the old flow
// saturated can have a negative one; resetFlow leaves such an arc
// saturated, charging its capacity to the imbalance at its ends, so the
// potentials stay dual-feasible and the round starts from the previous
// optimum's duals instead of the zero-flow ones.
func (g *Graph) resetFlow() {
	copy(g.excess, g.supply)
	for id, i := range g.fwd {
		a := &g.arcs[i]
		r := &g.arcs[a.rev]
		if c := g.orig[id]; a.cost+g.pot[r.to]-g.pot[a.to] < -costEps {
			a.cap, r.cap = 0, c
			g.excess[r.to] -= c
			g.excess[a.to] += c
		} else {
			a.cap, r.cap = c, 0
		}
	}
}

// flowCost recomputes the total cost of the routed flow in ArcID order
// (incremental accounting would drift across flow resets and re-routes;
// the direct sum is exact and O(m)).
func (g *Graph) flowCost() float64 {
	var total float64
	for _, i := range g.fwd {
		if f := g.arcs[g.arcs[i].rev].cap; f > 0 {
			total += f * g.arcs[i].cost
		}
	}
	return total
}

// route drives the residual network to zero imbalance in phases. Each phase
// runs one multi-source Dijkstra with reduced costs from the excess set,
// settling every reachable deficit, then raises potentials by min(dist, D)
// with D the farthest settled deficit (the early-termination label update of
// Ahuja–Magnanti–Orlin §9.7). After the update every shortest path consists
// of zero-reduced-cost arcs, so the phase batch-routes that admissible
// subgraph by push-relabel (admit): pushing only along zero-reduced-cost
// arcs keeps the invariant (their reverses are zero too).
//
// The alternative — one Dijkstra per augmenting path, the classical SSP loop
// — is what made reweighted LAC rounds expensive: reweighting leaves nearly
// every node with some imbalance, so path count ≈ node count, and almost all
// of those paths have length zero under the previous round's potentials.
// Phase batching routes the whole zero-cost region per search.
func (g *Graph) route(ctx context.Context, st *SolveStats) error {
	n := g.n
	g.ensureScratch()
	dist, prevArc, visited := g.dist[:n], g.prevArc[:n], g.visited[:n]
	arcs, start := g.arcs, g.start
	for {
		if g.ctx != nil {
			if err := g.ctx.Err(); err != nil {
				return err
			}
		}
		g.heap.reset()
		nsrc, ndef := 0, 0
		for v := 0; v < n; v++ {
			visited[v] = false
			prevArc[v] = -1
			switch {
			case g.excess[v] > Eps:
				dist[v] = 0
				g.heap.pushTied(pqItem{v: v, dist: 0})
				nsrc++
			default:
				if g.excess[v] < -Eps {
					ndef++
				}
				dist[v] = Inf
			}
		}
		if nsrc == 0 {
			return nil // no imbalance left
		}
		st.Phases++
		_, psp := obs.StartSpan(ctx, "phase")
		psp.SetAttr("sources", float64(nsrc))
		augBefore := st.AugmentingPaths
		// Dijkstra until every deficit is settled or the frontier dies.
		// first/D record the nearest settled deficit (fallback target) and
		// the farthest settled distance (potential-update cap).
		nset, first := 0, -1
		var D float64
		for g.heap.len() > 0 && nset < ndef {
			it := g.heap.pop()
			if visited[it.v] {
				continue
			}
			visited[it.v] = true
			if g.excess[it.v] < -Eps {
				nset++
				D = it.dist
				if first < 0 {
					first = it.v
				}
				// Keep relaxing: shortest paths may run through deficits.
			}
			pv := g.pot[it.v]
			for i := start[it.v]; i < start[it.v+1]; i++ {
				a := &arcs[i]
				if a.cap <= Eps || visited[a.to] {
					continue
				}
				rc := a.cost + pv - g.pot[a.to]
				if rc < 0 {
					// Residual reduced costs are nonnegative in exact
					// arithmetic (the successive-shortest-path invariant),
					// so any negative value is floating-point drift; clamp
					// it so Dijkstra's settled-label assumption holds.
					rc = 0
				}
				if nd := it.dist + rc; nd < dist[a.to]-costEps {
					dist[a.to] = nd
					prevArc[a.to] = i
					g.heap.relax(pqItem{v: int(a.to), dist: nd}, rc)
				}
			}
		}
		if nset == 0 {
			psp.End()
			return ErrInfeasible
		}
		// Settled deficits have distances ≤ D, so after the capped update
		// every arc on their shortest-path trees has reduced cost exactly 0
		// and stays shortest while admit routes. D == 0 (all deficits tied
		// at zero) leaves every potential unchanged, so the O(n) pass is
		// skipped.
		if D > 0 {
			for v := 0; v < n; v++ {
				if dist[v] < D {
					g.pot[v] += dist[v]
				} else {
					g.pot[v] += D
				}
			}
		}
		// Route the admissible subgraph until no deficit is reachable from
		// the remaining excess; only then is a new Dijkstra — the expensive
		// part of a phase — worth paying for.
		g.admit(st)
		if st.AugmentingPaths > augBefore {
			psp.SetAttr("augpaths", float64(st.AugmentingPaths-augBefore))
			psp.End()
			continue
		}
		// In exact arithmetic the nearest settled deficit's tree branch is
		// admissible after the update, so the labeling reaches its root.
		// Only floating-point drift in the reduced costs can leave a phase
		// that reduced no deficit. Such a phase pushed nothing: a preflow
		// that strands all its excess at label n started with none that
		// could reach a deficit, so the labeling left every node with
		// excess at n. Guarantee progress by augmenting that branch: it
		// still has capacity and its root still has excess.
		bottleneck := -g.excess[first]
		v := int32(first)
		for prevArc[v] != -1 {
			ai := prevArc[v]
			if arcs[ai].cap < bottleneck {
				bottleneck = arcs[ai].cap
			}
			v = g.tail(ai)
		}
		root := v
		if g.excess[root] < bottleneck {
			bottleneck = g.excess[root]
		}
		for v = int32(first); prevArc[v] != -1; {
			ai := prevArc[v]
			arcs[ai].cap -= bottleneck
			arcs[arcs[ai].rev].cap += bottleneck
			v = g.tail(ai)
		}
		g.excess[root] -= bottleneck
		g.excess[first] += bottleneck
		st.AugmentingPaths++
		if augmentCheck != nil {
			augmentCheck(g, g.pot)
		}
		psp.SetAttr("augpaths", float64(st.AugmentingPaths-augBefore))
		psp.End()
	}
}

// ensureScratch sizes the per-node scratch arrays.
func (g *Graph) ensureScratch() {
	n := g.n
	if len(g.dist) < n {
		g.dist = make([]float64, n)
		g.prevArc = make([]int32, n)
		g.visited = make([]bool, n)
		g.label = make([]int32, n)
		g.count = make([]int32, n+1)
		g.cur = make([]int32, n)
		g.head = make([]int32, n)
		g.next = make([]int32, n)
	}
}

// b2f encodes a flag as a span attribute value.
func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// admissible reports whether arc position i, leaving a node with potential
// pv, is in the admissible subgraph: positive capacity, zero reduced cost.
// The labeling, the routing search and relabel all decide admissibility
// with this one expression, so they agree bit for bit.
func (g *Graph) admissible(i int32, pv float64) bool {
	a := &g.arcs[i]
	return a.cap > Eps && a.cost+pv-g.pot[a.to] <= costEps
}

// labelEvent, when non-nil, is called with labelGap each time admit applies
// the gap rule and with labelGlobal each time it runs a global relabel. It
// is a test hook (see mcmf_test.go) that shows both fired.
var labelEvent func(kind int)

const (
	labelGap = iota
	labelGlobal
)

// labelAll computes exact distance labels with one reverse breadth-first
// search from the deficits over the admissible arcs: label[v] is v's
// admissible-arc distance to the nearest deficit. The search stops once
// every node with excess is labeled and the level of the farthest one is
// complete; the nodes still unlabeled are at least one level farther, so
// they get that level + 1, a valid lower bound that relabel raises if the
// routing search ever reaches them. When some excess node cannot reach a
// deficit, the search runs out and the unlabeled nodes get n (unreachable).
// It rebuilds the gap counts and the active stacks and resets the
// current-arc pointers.
func (g *Graph) labelAll(st *SolveStats) {
	st.Labelings++
	n := g.n
	label, count, arcs, start := g.label[:n], g.count[:n+1], g.arcs, g.start
	q := g.queue[:0]
	left := 0
	for v := range label {
		label[v] = -1
		switch {
		case g.excess[v] < -Eps:
			label[v] = 0
			q = append(q, int32(v))
		case g.excess[v] > Eps:
			left++
		}
	}
	fill := int32(n)
	for h := 0; h < len(q); h++ {
		w := q[h]
		next := label[w] + 1
		if next >= fill {
			break
		}
		st.Scans += int(start[w+1] - start[w])
		for i := start[w]; i < start[w+1]; i++ {
			u := arcs[i].to
			if label[u] >= 0 {
				continue
			}
			// The reverse half of w's arc i is the arc u→w.
			if g.admissible(arcs[i].rev, g.pot[u]) {
				label[u] = next
				q = append(q, u)
				if g.excess[u] > Eps {
					if left--; left == 0 {
						fill = next + 1
					}
				}
			}
		}
	}
	g.queue = q
	for k := range count {
		count[k] = 0
	}
	head := g.head[:n]
	for k := range head {
		head[k] = -1
	}
	g.top = -1
	for v, d := range label {
		if d < 0 {
			d = fill
			label[v] = d
		}
		count[d]++
		if g.excess[v] > Eps && d < int32(n) {
			g.activate(int32(v))
		}
	}
	copy(g.cur[:n], start)
}

// activate puts v, which has excess and a label below n, on its label's
// stack of active nodes.
func (g *Graph) activate(v int32) {
	d := g.label[v]
	g.next[v] = g.head[d]
	g.head[d] = v
	if d > g.top {
		g.top = d
	}
}

// relabel raises the label of v, which has no admissible arc left that
// descends one label, to one more than the lowest label among its
// admissible arcs' heads (n when there is none or that is n − 1), and
// points its current arc at the first arc achieving it: arcs before it
// cannot become admissible-and-descending until v is relabeled again,
// because pushes only open arcs that climb a label. If v was the
// last node at its old label, the gap rule applies: every node above the
// gap can reach a deficit only through that label, so all of them get n.
// It returns the number of arcs it scanned.
func (g *Graph) relabel(v int32) int {
	n := int32(g.n)
	label, count := g.label, g.count
	lo, hi := g.start[v], g.start[v+1]
	low, c, pv := n-1, hi, g.pot[v]
	for i := lo; i < hi; i++ {
		if d := label[g.arcs[i].to]; d < low && g.admissible(i, pv) {
			low, c = d, i
		}
	}
	old := label[v]
	g.cur[v] = c
	label[v] = low + 1
	count[old]--
	count[low+1]++
	if count[old] == 0 {
		if labelEvent != nil {
			labelEvent(labelGap)
		}
		for u, d := range label[:n] {
			if d > old && d < n {
				count[d]--
				count[n]++
				label[u] = n
			}
		}
	}
	return int(hi - lo)
}

// admit routes the excess through the admissible subgraph by push-relabel
// discharge until no active node is left: every node with excess either
// has passed it on or is labeled n, unable to reach a deficit.
//
// It starts from an exact labeling (labelAll) and keeps the labels valid
// for the whole phase: label[v] ≤ label[w] + 1 on every admissible arc
// v→w, with deficits at 0, so label[v] is a lower bound on v's distance to
// a deficit and n means none is reachable. It discharges the active node
// of highest label: v pushes along its current arc while that arc is
// admissible and descends one label, and is relabeled when none is left.
// A push only opens the reverse of an arc that descends, which climbs a
// label, so the labels stay valid without rescans. A deficit absorbs what
// it is pushed; one that overfills becomes active and is relabeled off 0.
// When the relabels have scanned more arcs since the last labeling than
// the network holds — about what one exact labeling costs — the lower
// bounds have drifted far enough that an exact labeling is cheaper, and
// admit relabels globally.
func (g *Graph) admit(st *SolveStats) {
	g.labelAll(st)
	n := int32(g.n)
	arcs, start, label, cur, excess := g.arcs, g.start, g.label, g.cur, g.excess
	head, next := g.head, g.next
	work := 0
	for {
		for g.top >= 0 && head[g.top] < 0 {
			g.top--
		}
		if g.top < 0 {
			return
		}
		v := head[g.top]
		head[g.top] = next[v]
		for excess[v] > Eps && label[v] < n {
			down, pv := label[v]-1, g.pot[v]
			i, end := cur[v], start[v+1]
			for ; i < end; i++ {
				if label[arcs[i].to] == down && g.admissible(i, pv) {
					st.Scans++
					break
				}
			}
			st.Scans += int(i - cur[v])
			cur[v] = i
			if i < end {
				g.push(v, i, st)
				continue
			}
			rs := g.relabel(v)
			st.Scans += rs
			if work += rs; work > len(arcs) {
				if labelEvent != nil {
					labelEvent(labelGlobal)
				}
				g.labelAll(st) // restacks v if it is still active
				work = 0
				break
			}
		}
	}
}

// push moves min(excess, capacity) from v along arc position i. A head
// that was a deficit counts an augmenting path; one that gains excess
// becomes active.
func (g *Graph) push(v, i int32, st *SolveStats) {
	a := &g.arcs[i]
	b := g.excess[v]
	if a.cap < b {
		b = a.cap
	}
	a.cap -= b
	g.arcs[a.rev].cap += b
	w := a.to
	before := g.excess[w]
	g.excess[v] -= b
	g.excess[w] += b
	if before < -Eps {
		st.AugmentingPaths++
	}
	if before <= Eps && g.excess[w] > Eps {
		g.activate(w)
	}
	if augmentCheck != nil {
		augmentCheck(g, g.pot)
	}
}

// augmentCheck, when non-nil, runs after every push and augmentation with the
// current potentials. It is a test hook (see mcmf_test.go) used to verify
// the successive-shortest-path invariant — nonnegative residual reduced
// costs — at every intermediate state, not just at optimality; it covers
// both the cold first Resolve and the warm ones, which share the routing
// loop.
var augmentCheck func(g *Graph, pot []float64)

// Potentials returns the shortest-path distance of every node
// from a virtual root connected to all nodes with zero-cost arcs, computed
// over the current residual network. Before any solve this doubles as the
// initial-potential computation (and negative-cycle check); after a solve
// the residual network has no negative cycles at optimality, so the
// distances are well defined. It freezes the network like Resolve.
//
// For retiming: with constraint arcs u→v of cost b encoding
// r(u) − r(v) ≤ b, setting r(v) = −Potentials()[v] yields an optimal
// feasible retiming (shortest-path inequalities give feasibility; saturated
// arcs' reverse arcs give complementary slackness, hence optimality).
// Because the feasible-potential region of the residual network is the
// optimal dual face — the same for every optimal flow — these distances are
// canonical: a warm-started and a cold solve extract identical labels even
// when their flows differ among ties.
//
// Before the first Resolve the arc costs may be negative, so this runs
// Bellman–Ford. After it, the maintained potentials keep every residual
// reduced cost nonnegative, so one Dijkstra on reduced costs from the
// virtual root gives the same distances: the root's arc to v has reduced
// cost pmax − pot[v] with pmax the largest potential, and a reduced
// distance key converts back as key − pmax + pot[v]. With integral costs
// and potentials every step is exact, so both methods agree bit for bit.
//
// After a Resolve the returned slice is the solver's Dijkstra scratch: it
// is valid until the next Resolve or Potentials call. Every node starts at
// its root key, so the search does not queue them all: one pass over the
// residual arcs relaxes each node's out-arcs from its root key, and only
// the nodes that pass lowered enter the heap. A node never lowered keeps
// its root key, which is final, and the pass has already relaxed its arcs
// from it.
func (g *Graph) Potentials() ([]float64, error) {
	g.freeze()
	if g.pot == nil {
		return g.bellmanFord()
	}
	n := g.n
	g.ensureScratch()
	arcs, start, pot, done, key := g.arcs, g.start, g.pot, g.visited[:n], g.dist[:n]
	pmax := math.Inf(-1)
	for _, p := range pot {
		pmax = math.Max(pmax, p)
	}
	for v := range key {
		key[v] = pmax - pot[v]
		done[v] = false
	}
	g.heap.reset()
	for u := range key {
		ku, pu := key[u], pot[u]
		for i := start[u]; i < start[u+1]; i++ {
			a := &arcs[i]
			if a.cap <= Eps {
				continue
			}
			rc := a.cost + pu - pot[a.to]
			if rc < 0 {
				rc = 0 // floating-point drift, as in route
			}
			if nd := ku + rc; nd < key[a.to]-costEps {
				key[a.to] = nd
				g.heap.push(pqItem{v: int(a.to), dist: nd})
			}
		}
	}
	for g.heap.len() > 0 {
		it := g.heap.pop()
		if done[it.v] {
			continue
		}
		done[it.v] = true
		pv := pot[it.v]
		for i := start[it.v]; i < start[it.v+1]; i++ {
			a := &arcs[i]
			if a.cap <= Eps || done[a.to] {
				continue
			}
			rc := a.cost + pv - pot[a.to]
			if rc < 0 {
				rc = 0 // floating-point drift, as in route
			}
			if nd := it.dist + rc; nd < key[a.to]-costEps {
				key[a.to] = nd
				g.heap.relax(pqItem{v: int(a.to), dist: nd}, rc)
			}
		}
	}
	for v := range key {
		key[v] = key[v] - pmax + pot[v]
	}
	return key, nil
}

// bellmanFord computes Potentials' distances with Bellman–Ford passes,
// which handle negative arc costs and detect a negative cycle. It runs for
// the cold start, before any potentials exist.
func (g *Graph) bellmanFord() ([]float64, error) {
	arcs, start := g.arcs, g.start
	dist := make([]float64, g.n)
	var changed bool
	for iter := 0; iter <= g.n; iter++ {
		changed = false
		for v := 0; v < g.n; v++ {
			for i := start[v]; i < start[v+1]; i++ {
				a := &arcs[i]
				if a.cap <= Eps {
					continue
				}
				if nd := dist[v] + a.cost; nd < dist[a.to]-costEps {
					dist[a.to] = nd
					changed = true
				}
			}
		}
		if !changed {
			return dist, nil
		}
	}
	return nil, ErrNegativeCycle
}

// pqItem is one Dijkstra work item.
type pqItem struct {
	v    int
	dist float64
}

// pqHeap is a typed slice-based binary min-heap over (dist, v) — the
// interface{}-boxed container/heap was the last per-push allocation on the
// solver's hottest inner loop — beside a stack of items tied with the last
// one popped. Most relaxations in a warm phase cross an arc of zero reduced
// cost, so their items tie with the minimum; they go on the stack and pop
// before any heap item, without a sift either way. Every item still pops
// at its own distance in nondecreasing order, so the distances do not
// depend on the order among ties.
type pqHeap struct {
	items []pqItem
	tied  []pqItem
}

func (h *pqHeap) len() int { return len(h.items) + len(h.tied) }
func (h *pqHeap) reset() {
	h.items = h.items[:0]
	h.tied = h.tied[:0]
}

// pushTied adds an item whose distance equals the last popped one's, or the
// least any item can have.
func (h *pqHeap) pushTied(it pqItem) { h.tied = append(h.tied, it) }

// relax adds an item reached from the last popped one over an arc of
// reduced cost rc ≥ 0.
func (h *pqHeap) relax(it pqItem, rc float64) {
	if rc == 0 {
		h.pushTied(it)
		return
	}
	h.push(it)
}

func (h *pqHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	return a.dist < b.dist || (a.dist == b.dist && a.v < b.v)
}

// init orders items appended directly to h.items into a heap in O(len).
func (h *pqHeap) init() {
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *pqHeap) push(it pqItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *pqHeap) pop() pqItem {
	if n := len(h.tied); n > 0 {
		it := h.tied[n-1]
		h.tied = h.tied[:n-1]
		return it
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	h.down(0)
	return top
}

// down sifts the item at i toward the leaves until the heap order holds.
func (h *pqHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.items) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.items) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
