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
// by Resolve, repeatedly. The first Resolve solves cold. Arc costs are fixed
// once solving starts, so the residual network and node potentials persist
// across calls and stay dual-feasible: a re-solve after a supply change runs
// successive shortest paths on the new imbalance from the previous flow
// instead of starting cold. This is what makes the LAC reweighting loop
// cheap: the constraint network is built once and each round only routes
// the supply change induced by the new weights.
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

// arc is one direction of a residual pair; arcs[i^1] is its reverse.
type arc struct {
	to   int
	cap  float64 // remaining capacity
	cost float64
}

// SolveStats reports how the engine handled the most recent Resolve.
type SolveStats struct {
	// Warm is true when the solve reused the previous residual network and
	// potentials instead of starting from zero flow.
	Warm bool
	// SupplyChanged counts nodes whose supply changed since the previous
	// Resolve.
	SupplyChanged int
	// AugmentingPaths counts the shortest augmenting paths run by this
	// Resolve (the warm path routes only the imbalance, so this is the
	// direct measure of work saved).
	AugmentingPaths int
	// Phases counts the multi-source Dijkstra searches run by this
	// Resolve. Each phase settles every reachable deficit and then
	// batch-augments along the shortest-path forest, so Phases ≤
	// AugmentingPaths, usually by a wide margin.
	Phases int
	// FlowReset is true when a warm solve dropped the previous flow but
	// kept its potentials: when most supplies changed, re-routing from
	// zero through a clean residual beats threading the delta through the
	// narrow reverse arcs the old flow left behind, and the potentials
	// stay dual-feasible (every original arc kept reduced cost ≥ 0), so
	// the Bellman–Ford pass a genuinely cold solve pays is still skipped.
	FlowReset bool
}

// Graph is a min-cost flow network. The zero value is not usable; call New.
type Graph struct {
	n    int
	arcs []arc
	head [][]int // head[v] = indices into arcs
	orig []float64
	inc  bool // incremental mode engaged (a Resolve has run)

	// Incremental state: potentials and per-node imbalance (target supply
	// minus currently routed net outflow) persist across Resolve calls.
	pot     []float64
	excess  []float64
	supply  []float64
	pendSup int // nodes with supply changed since last Resolve
	stats   SolveStats
	ctx     context.Context // consulted between routing phases; nil = never

	// Per-phase scratch, reused across solves: Dijkstra labels, then the
	// admissible-subgraph DFS (visited doubles as on-stack/dead marks, cur
	// is the current-arc pointer, stack holds the DFS path's arc indices).
	dist    []float64
	prevArc []int
	visited []bool
	cur     []int
	srcs    []int
	stack   []int
	heap    pqHeap
}

// New returns a network with n nodes and no arcs.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("mcmf: negative node count %d", n))
	}
	return &Graph{n: n, head: make([][]int, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// AddArc adds a directed arc with the given capacity and per-unit cost and
// returns its identifier. Capacity may be mcmf.Inf. Every arc must be added
// before the first Resolve.
func (g *Graph) AddArc(from, to int, capacity, cost float64) ArcID {
	if g.inc {
		panic("mcmf: AddArc after Resolve")
	}
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("mcmf: arc (%d,%d) out of range [0,%d)", from, to, g.n))
	}
	if capacity < 0 {
		panic("mcmf: negative capacity")
	}
	id := ArcID(len(g.arcs))
	g.arcs = append(g.arcs, arc{to: to, cap: capacity, cost: cost})
	g.arcs = append(g.arcs, arc{to: from, cap: 0, cost: -cost})
	g.head[from] = append(g.head[from], int(id))
	g.head[to] = append(g.head[to], int(id)+1)
	g.orig = append(g.orig, capacity)
	return id
}

// Flow returns the flow routed through arc a after the last Resolve.
func (g *Graph) Flow(a ArcID) float64 {
	return g.arcs[int(a)^1].cap
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
// returns the cost of the resulting flow. The first call solves cold
// (Bellman–Ford potentials, then phase-batched successive shortest paths);
// subsequent calls warm-start from the previous residual network and
// potentials: a localized supply change routes only the per-node
// imbalance, while a global one (most supplies changed) re-routes from zero
// flow through the already-built network (see SolveStats.FlowReset). After
// an error the residual state is undefined and the network should be
// discarded.
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
		sp.SetAttr("augpaths", float64(st.AugmentingPaths))
		sp.End()
		reg := obs.FromContext(sctx).Registry()
		reg.Counter("mcmf.phases").Add(int64(st.Phases))
		reg.Counter("mcmf.augpaths").Add(int64(st.AugmentingPaths))
	}()
	if !g.inc {
		g.inc = true
		pot, err := g.Potentials()
		if err != nil {
			g.stats = st
			return 0, err
		}
		g.pot = pot
	}
	// Adaptive warm start: a localized supply change routes fastest as a
	// delta through the existing flow, but a global one (e.g. a LAC
	// reweighting round, which perturbs every node's supply) routes fewer
	// and wider paths from zero flow. Keep the potentials either way — that
	// is the expensive part of a cold start.
	if st.Warm && 4*st.SupplyChanged >= g.n {
		st.FlowReset = true
		g.resetFlow()
		pot, err := g.Potentials()
		if err != nil {
			g.stats = st
			return 0, err
		}
		g.pot = pot
	}
	if err := g.route(rctx, &st); err != nil {
		g.stats = st
		return 0, err
	}
	g.stats = st
	return g.flowCost(), nil
}

// resetFlow returns every arc to its original capacity and the imbalance to
// the full supply vector (the adaptive flow reset).
func (g *Graph) resetFlow() {
	for p, c := range g.orig {
		g.arcs[2*p].cap = c
		g.arcs[2*p+1].cap = 0
	}
	copy(g.excess, g.supply)
}

// flowCost recomputes the total cost of the routed flow (incremental
// accounting would drift across flow resets and re-routes; the direct sum
// is exact and O(m)).
func (g *Graph) flowCost() float64 {
	var total float64
	for p := range g.orig {
		if f := g.arcs[2*p+1].cap; f > 0 {
			total += f * g.arcs[2*p].cost
		}
	}
	return total
}

// route drives the residual network to zero imbalance in phases. Each phase
// runs one multi-source Dijkstra with reduced costs from the excess set,
// settling every reachable deficit, then raises potentials by min(dist, D)
// with D the farthest settled deficit (the early-termination label update of
// Ahuja–Magnanti–Orlin §9.7). After the update every shortest path consists
// of zero-reduced-cost arcs, so the phase batch-routes with a Dinic-style
// depth-first search over that admissible subgraph: augmenting only
// zero-reduced-cost arcs keeps the invariant (their reverses are zero too),
// and the DFS re-roots freely when a source dries up instead of being stuck
// with the one tree branch Dijkstra happened to record.
//
// The alternative — one Dijkstra per augmenting path, the classical SSP loop
// — is what made reweighted LAC rounds expensive: reweighting leaves nearly
// every node with some imbalance, so path count ≈ node count, and almost all
// of those paths have length zero under the previous round's potentials.
// Phase batching routes the whole zero-cost region per search.
func (g *Graph) route(ctx context.Context, st *SolveStats) error {
	n := g.n
	if len(g.dist) < n {
		g.dist = make([]float64, n)
		g.prevArc = make([]int, n)
		g.visited = make([]bool, n)
		g.cur = make([]int, n)
	}
	dist, prevArc, visited, cur := g.dist[:n], g.prevArc[:n], g.visited[:n], g.cur[:n]
	for {
		if g.ctx != nil {
			if err := g.ctx.Err(); err != nil {
				return err
			}
		}
		g.heap.reset()
		g.srcs = g.srcs[:0]
		ndef := 0
		for v := 0; v < n; v++ {
			visited[v] = false
			prevArc[v] = -1
			cur[v] = 0
			switch {
			case g.excess[v] > Eps:
				dist[v] = 0
				// Ascending v with equal keys: each push is O(1), no sift.
				g.heap.push(pqItem{v: v, dist: 0})
				g.srcs = append(g.srcs, v)
			default:
				if g.excess[v] < -Eps {
					ndef++
				}
				dist[v] = Inf
			}
		}
		if len(g.srcs) == 0 {
			return nil // no imbalance left
		}
		st.Phases++
		_, psp := obs.StartSpan(ctx, "phase")
		psp.SetAttr("sources", float64(len(g.srcs)))
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
			for _, ai := range g.head[it.v] {
				a := g.arcs[ai]
				if a.cap <= Eps || visited[a.to] {
					continue
				}
				rc := a.cost + g.pot[it.v] - g.pot[a.to]
				if rc < 0 {
					// Residual reduced costs are nonnegative in exact
					// arithmetic (the successive-shortest-path invariant),
					// so any negative value is floating-point drift; clamp
					// it so Dijkstra's settled-label assumption holds.
					rc = 0
				}
				if nd := it.dist + rc; nd < dist[a.to]-costEps {
					dist[a.to] = nd
					prevArc[a.to] = ai
					g.heap.push(pqItem{v: a.to, dist: nd})
				}
			}
		}
		if nset == 0 {
			psp.End()
			return ErrInfeasible
		}
		// Settled deficits have distances ≤ D, so after the capped update
		// every arc on their shortest-path trees has reduced cost exactly 0
		// and stays shortest throughout the batch below. D == 0 (all
		// deficits tied at zero) leaves every potential unchanged, so the
		// O(n) pass is skipped.
		if D > 0 {
			for v := 0; v < n; v++ {
				if dist[v] < D {
					g.pot[v] += dist[v]
				} else {
					g.pot[v] += D
				}
			}
		}
		// Batch-route the admissible subgraph until it is exhausted. The
		// dead-node marks are only valid until the next augmentation (a
		// revived reverse arc can resurrect a dead node), so keep running
		// passes with fresh marks until one routes nothing; only then is a
		// new Dijkstra — the expensive part of a phase — worth paying for.
		// visited switches roles here: Dijkstra's settled marks become the
		// DFS's on-stack/dead marks.
		phaseAug := 0
		for {
			for v := 0; v < n; v++ {
				visited[v] = false
				cur[v] = 0
			}
			passAug := 0
			for _, s := range g.srcs {
				for g.excess[s] > Eps && g.dfsAugment(s, st) {
					passAug++
				}
			}
			phaseAug += passAug
			if passAug == 0 {
				break
			}
		}
		if phaseAug > 0 {
			psp.SetAttr("augpaths", float64(st.AugmentingPaths-augBefore))
			psp.End()
			continue
		}
		// The DFS's dead-node marking is phase-local and approximate (an
		// augmentation can revive a node already marked dead), so in
		// principle a phase can route nothing. Guarantee progress by
		// augmenting the nearest settled deficit along its Dijkstra tree
		// branch: no flow moved this phase, so the branch still has
		// capacity and its root still has excess.
		bottleneck := -g.excess[first]
		v := first
		for prevArc[v] != -1 {
			ai := prevArc[v]
			if g.arcs[ai].cap < bottleneck {
				bottleneck = g.arcs[ai].cap
			}
			v = g.arcs[ai^1].to
		}
		root := v
		if g.excess[root] < bottleneck {
			bottleneck = g.excess[root]
		}
		for v = first; prevArc[v] != -1; {
			ai := prevArc[v]
			g.arcs[ai].cap -= bottleneck
			g.arcs[ai^1].cap += bottleneck
			v = g.arcs[ai^1].to
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

// b2f encodes a flag as a span attribute value.
func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// dfsAugment routes one augmenting path from source s to any deficit along
// admissible (zero-reduced-cost, positive-capacity) residual arcs,
// depth-first. It returns false when the unexplored admissible subgraph has
// no deficit reachable from s. visited doubles as the on-stack and dead-node
// mark; cur is the Dinic-style current-arc pointer, so repeated probes from
// the sources of one phase never rescan a node's rejected arcs.
func (g *Graph) dfsAugment(s int, st *SolveStats) bool {
	g.stack = g.stack[:0]
	g.visited[s] = true
	v := s
	for {
		advanced := false
		for g.cur[v] < len(g.head[v]) {
			ai := g.head[v][g.cur[v]]
			a := &g.arcs[ai]
			if a.cap > Eps && !g.visited[a.to] && a.cost+g.pot[v]-g.pot[a.to] <= costEps {
				if g.excess[a.to] < -Eps {
					g.augmentStack(s, ai, st)
					return true
				}
				g.visited[a.to] = true
				g.stack = append(g.stack, ai)
				v = a.to
				advanced = true
				break
			}
			g.cur[v]++
		}
		if advanced {
			continue
		}
		if len(g.stack) == 0 {
			// s itself is dead for this phase; the mark stays so other
			// sources' probes skip it too.
			return false
		}
		// Retreat. v stays marked (its arcs are exhausted — dead until the
		// next phase) and the search resumes at its parent.
		ai := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		v = g.arcs[ai^1].to
	}
}

// augmentStack pushes the bottleneck along g.stack plus the final arc `last`
// from source s to the deficit at arcs[last].to, then unmarks the path nodes
// so the next probe from s can reuse the path up to whatever saturated.
func (g *Graph) augmentStack(s, last int, st *SolveStats) {
	t := g.arcs[last].to
	bottleneck := -g.excess[t]
	if g.excess[s] < bottleneck {
		bottleneck = g.excess[s]
	}
	if c := g.arcs[last].cap; c < bottleneck {
		bottleneck = c
	}
	for _, ai := range g.stack {
		if c := g.arcs[ai].cap; c < bottleneck {
			bottleneck = c
		}
	}
	g.arcs[last].cap -= bottleneck
	g.arcs[last^1].cap += bottleneck
	for _, ai := range g.stack {
		g.arcs[ai].cap -= bottleneck
		g.arcs[ai^1].cap += bottleneck
		g.visited[g.arcs[ai].to] = false
	}
	g.visited[s] = false
	g.excess[s] -= bottleneck
	g.excess[t] += bottleneck
	st.AugmentingPaths++
	if augmentCheck != nil {
		augmentCheck(g, g.pot)
	}
}

// augmentCheck, when non-nil, runs after every augmentation with the
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
// distances are well defined.
//
// For retiming: with constraint arcs u→v of cost b encoding
// r(u) − r(v) ≤ b, setting r(v) = −Potentials()[v] yields an optimal
// feasible retiming (shortest-path inequalities give feasibility; saturated
// arcs' reverse arcs give complementary slackness, hence optimality).
// Because the feasible-potential region of the residual network is the
// optimal dual face — the same for every optimal flow — these distances are
// canonical: a warm-started and a cold solve extract identical labels even
// when their flows differ among ties.
func (g *Graph) Potentials() ([]float64, error) {
	dist := make([]float64, g.n)
	var changed bool
	for iter := 0; iter <= g.n; iter++ {
		changed = false
		for v := 0; v < g.n; v++ {
			for _, ai := range g.head[v] {
				a := g.arcs[ai]
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
// solver's hottest inner loop. The (dist, v) order is total for distinct
// items, so the pop sequence is implementation-independent.
type pqHeap struct {
	items []pqItem
}

func (h *pqHeap) len() int { return len(h.items) }
func (h *pqHeap) reset()   { h.items = h.items[:0] }
func (h *pqHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	return a.dist < b.dist || (a.dist == b.dist && a.v < b.v)
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
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
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
			return top
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
