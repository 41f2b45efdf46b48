package retime

import (
	"context"
	"math"

	"lacret/internal/graph"
)

// ProbeStats aggregates the work of a feasibility-probe sequence — the
// per-search counters surfaced by the observed period search
// (retime.feas_warm, retime.pairs_scanned, retime.cuts) and the planning
// trace.
type ProbeStats struct {
	// Probes is the number of Probe calls answered.
	Probes int
	// Warm counts probes answered by relaxing from a previous feasible
	// labeling instead of the trivial all-zero top.
	Warm int
	// WitnessRejects counts infeasible probes rejected by a recorded
	// negative-cycle witness without any constraint work.
	WitnessRejects int
	// BoundRejects counts infeasible probes below the solver's floor
	// (Graph.PeriodFloor), rejected without any constraint work.
	BoundRejects int
	// Resets counts probes above the current warm threshold that had to
	// restart from the all-zero labeling (never happens in a binary
	// search, whose feasible probes descend monotonically).
	Resets int
	// Floor is the period floor the solver rejected below
	// (Graph.PeriodFloor of its graph).
	Floor float64
	// IndexPairs is always 0. It sized the all-pairs candidate index the
	// solver kept before the cut pool replaced it, and stays only so
	// existing readers of the counters keep compiling.
	IndexPairs int64
	// PairsScanned counts pool arcs whose activation status was examined
	// when seeding a probe: the arcs that activated between the previous
	// feasible threshold and the probed one.
	PairsScanned int64
	// Cuts counts the path cuts added to the pool (each one a constraint
	// the timing pass found violated).
	Cuts int64
	// CutRounds counts timing passes over the retimed graph: one per
	// converged solve of the pool, the last of a feasible probe included.
	CutRounds int
	// Relaxations counts successful label relaxations across all probes.
	Relaxations int64
}

// feasArc is one live difference constraint r(u) − r(v) ≤ bound, stored on
// the adjacency list of v (relaxation rescans it when the label of v
// drops). d is the activation key: the constraint participates in a probe
// at period T iff d > T + periodTol(T); edge and pin constraints carry
// d = +Inf (always active), a path cut the delay of its path.
type feasArc struct {
	u     int32
	bound int32
	d     float64
}

// pendingCut is a path cut found by a timing pass, inserted into the pool
// once the pass has found all of its round's cuts.
type pendingCut struct {
	u, v  int32
	bound int32
	d     float64
}

// FeasSolver is a persistent feasibility-probe solver for the minimum-period
// binary search. It answers a probe at period T without the O(V²) clock
// constraint system, generating only the constraints the probe needs
// (in the spirit of Shenoy–Rudell):
//
//   - A cut pool: per-vertex constraint lists sorted by activation key,
//     seeded with the edge and pin constraints. By Leiserson–Saxe a
//     labeling meets T exactly when the retimed graph has no
//     register-free path longer than T, so after each solve of the pool
//     one timing pass over the retimed graph finds the violated paths.
//     For every vertex v whose arrival exceeds the threshold, the nearest
//     u behind it on its critical path whose path to v is too long yields
//     the cut r(u) − r(v) ≤ w(p) − 1, keyed by the path's delay, so one
//     pass yields every cut it exposes. The pool is re-solved until
//     timing passes (feasible) or it holds a negative cycle (infeasible).
//     Cuts persist across probes: a key is a period threshold like the
//     D(u,v) of the full system, so a cut serves every lower probe too.
//   - FEAS-style warm relaxation: the labeling of the last feasible probe
//     is kept, and a probe at a lower T relaxes only from the frontier of
//     newly active violated constraints (SPFA worklist) instead of
//     sweeping all vertices; an infeasible probe restores the labeling and
//     records the negative cycle's witness — the smallest key on the
//     cycle — so every later probe below that witness is rejected in O(1).
//   - A period floor (Graph.PeriodFloor): the iteration bound less a
//     tolerance margin. Probes below it are rejected in O(1).
//
// The verdicts and labelings are exactly those of the cold path (the full
// clock-constraint system solved by Feasible; the tests build it with
// BuildConstraints): every cut is implied by the full system
// at the probed period, so the pool's maximum solution ≤ 0 is at least the
// full system's; when it passes timing it satisfies the full system, so
// the two are equal. A search driven by this solver is bit-identical to
// one driven by cold probes.
//
// A solver serves one goroutine at a time.
type FeasSolver struct {
	rg    *Graph
	floor float64

	// The graph's edges in CSR form for the timing pass: the out-edges of
	// v are outTo/outW[outStart[v]:outStart[v+1]], self-loops dropped.
	outStart []int32
	outTo    []int32
	outW     []int32

	// Constraint pool: arcs[v] sorted by d descending (edge/pin base arcs
	// first at d=+Inf, then the cuts).
	arcs [][]feasArc

	// Warm state: x is the maximum solution ≤ 0 of the system active at
	// threshold fCur (+Inf before the first feasible probe: only the base
	// arcs, which the zero labeling solves).
	x     []int
	xSnap []int
	fCur  float64

	// witnessMinD is the strongest negative-cycle witness found: the
	// smallest activation d on a violated cycle. Every period whose
	// activation threshold lies below it keeps the whole cycle active and
	// is infeasible without a solve.
	witnessMinD float64

	// Relaxation scratch.
	wl          *graph.Worklist
	parent      []int32
	parentD     []float64
	parentB     []int32
	plen        []int32
	prefixLen   []int32
	prefixEpoch []int32
	epoch       int32

	// Timing-pass scratch: register-free in-degree, topological queue,
	// arrival times, critical register-free predecessor (-1 at a path
	// start), the largest arrival (the retimed period), the walked-back
	// path, and the round's cuts.
	indeg   []int32
	order   []int32
	arr     []float64
	crit    []int32
	period  float64
	path    []int32
	pending []pendingCut

	stats ProbeStats
}

// periodEps is the base tolerance for clock-period comparisons (ns scale).
const periodEps = 1e-9

// periodTol returns the comparison tolerance for period T. The tolerance is
// relative: path delays are sums of vertex delays whose floating-point
// rounding scales with the magnitude of the sum, so an absolute 1e-9 guard
// breaks down once delays reach ~1e7 (one ulp at that scale already exceeds
// it) and retiming at exactly the binary-searched Tmin can spuriously flip
// to infeasible. max(1, |T|) keeps the classical absolute behavior for
// ns-scale periods.
func periodTol(T float64) float64 {
	m := math.Abs(T)
	if m < 1 {
		m = 1
	}
	return periodEps * m
}

// activation returns the activation threshold of period T: a clock pair
// (u,v) constrains the probe at T iff D(u,v) > activation(T). It is
// strictly increasing in T, so lower periods activate supersets.
func activation(T float64) float64 { return T + periodTol(T) }

// NewFeasSolver builds a persistent probe solver, floored at the graph's
// PeriodFloor: no period below it is achievable, so probes there are
// rejected in O(1). Construction is O(V + E) plus the iteration bound; the
// pool starts from the edge and pin constraints alone.
func NewFeasSolver(rg *Graph) *FeasSolver {
	return newFeasSolver(rg, rg.EdgeConstraints(), rg.PinConstraints())
}

// newFeasSolver is NewFeasSolver over the graph's edge and pin constraints
// already built.
func newFeasSolver(rg *Graph, edge, pin []Constraint) *FeasSolver {
	n := rg.N()
	fs := &FeasSolver{
		rg:          rg,
		floor:       rg.PeriodFloor(),
		outStart:    make([]int32, n+1),
		arcs:        make([][]feasArc, n),
		x:           make([]int, n),
		xSnap:       make([]int, n),
		fCur:        math.Inf(1),
		witnessMinD: math.Inf(-1),
		wl:          graph.NewWorklist(n),
		parent:      make([]int32, n),
		parentD:     make([]float64, n),
		parentB:     make([]int32, n),
		plen:        make([]int32, n),
		prefixLen:   make([]int32, n),
		prefixEpoch: make([]int32, n),
		indeg:       make([]int32, n),
		order:       make([]int32, 0, n),
		arr:         make([]float64, n),
		crit:        make([]int32, n),
	}
	fs.stats.Floor = fs.floor
	for v := 0; v < n; v++ {
		for _, ei := range rg.g.Out(v) {
			if e := rg.g.Edge(ei); e.To != v {
				fs.outTo = append(fs.outTo, int32(e.To))
				fs.outW = append(fs.outW, int32(e.W))
			}
		}
		fs.outStart[v+1] = int32(len(fs.outTo))
	}
	// Base arcs: the T-independent edge-weight and pinning constraints,
	// always active (d = +Inf), installed ahead of every cut.
	for _, cs := range [][]Constraint{edge, pin} {
		for _, c := range cs {
			fs.arcs[c.V] = append(fs.arcs[c.V], feasArc{u: int32(c.U), bound: int32(c.Bound), d: math.Inf(1)})
		}
	}
	return fs
}

// Stats returns the accumulated probe counters.
func (fs *FeasSolver) Stats() ProbeStats { return fs.stats }

// arcPrefix returns the number of leading arcs of list a active at
// threshold fT (lists are d-descending, so the active set is a prefix).
func arcPrefix(a []feasArc, fT float64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid].d > fT {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// activeLen is arcPrefix for the current probe's threshold, cached per
// vertex per probe (the SPFA loop revisits vertices).
func (fs *FeasSolver) activeLen(v int, fT float64) int {
	if fs.prefixEpoch[v] == fs.epoch {
		return int(fs.prefixLen[v])
	}
	p := arcPrefix(fs.arcs[v], fT)
	fs.prefixLen[v] = int32(p)
	fs.prefixEpoch[v] = fs.epoch
	return p
}

// reset discards the warm labeling, returning the solver to the trivial
// top (all-zero labels, feasible for the base arcs alone). Needed only
// when a probe asks about a period above the last feasible one — a
// pattern the binary search never produces.
func (fs *FeasSolver) reset() {
	for i := range fs.x {
		fs.x[i] = 0
	}
	fs.fCur = math.Inf(1)
	fs.stats.Resets++
}

// Probe reports whether period T is achievable by retiming, returning a
// realizing labeling (normalized like Feasible: pinned vertices at zero)
// and the period it realizes when it is. Verdicts and labelings are
// identical to the cold full-system path, and the period is the one
// Graph.Period measures on the retimed graph, bit for bit: it is the
// largest arrival of the probe's last timing pass, which sums arrivals as
// Graph.Arrivals does over the same register-free edges (normalization
// shifts every label equally, so it moves no edge weight). A T below the
// solver's floor (which includes every T some single vertex delay
// exceeds) is infeasible in O(1); non-positive or NaN T reports
// infeasible, matching the cold path's ErrInfeasible handling in the
// period search.
func (fs *FeasSolver) Probe(T float64) (r []int, period float64, feasible bool) {
	r, period, feasible, _ = fs.probe(context.Background(), T)
	return r, period, feasible
}

// probe is Probe under a context, checked between cut rounds. A probe the
// context stops restores the warm labeling, as an infeasible one does, and
// returns the context's error; the cuts it added stay in the pool.
func (fs *FeasSolver) probe(ctx context.Context, T float64) (r []int, period float64, feasible bool, err error) {
	fs.stats.Probes++
	if math.IsNaN(T) || T <= 0 {
		return nil, 0, false, nil
	}
	if T < fs.floor {
		fs.stats.BoundRejects++
		return nil, 0, false, nil
	}
	fT := activation(T)
	if fs.witnessMinD > fT {
		// A recorded negative cycle stays fully active at T.
		fs.stats.WitnessRejects++
		return nil, 0, false, nil
	}
	if fT > fs.fCur {
		fs.reset()
	} else if !math.IsInf(fs.fCur, 1) {
		fs.stats.Warm++
	}
	n := fs.rg.N()
	fs.epoch++
	fs.wl.Reset()
	copy(fs.xSnap, fs.x)
	for i := range fs.parent {
		fs.parent[i] = -1
		fs.plen[i] = 0
	}
	// Seed: scan the constraints whose activation status changed between
	// the warm threshold and this probe — indices in (prefix(fCur),
	// prefix(fT)) of each list — and relax the violated ones. The warm
	// labeling already satisfies everything active at fCur: it passed
	// timing there, so no register-free path, and hence no cut path,
	// keyed above fCur survives in its retimed graph. That includes the
	// cuts an infeasible probe added after it was taken.
	for v := 0; v < n; v++ {
		a := fs.arcs[v]
		lo := arcPrefix(a, fs.fCur)
		hi := fs.activeLen(v, fT)
		fs.stats.PairsScanned += int64(hi - lo)
		for i := lo; i < hi; i++ {
			fs.relaxArc(v, a[i])
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			copy(fs.x, fs.xSnap)
			return nil, 0, false, err
		}
		if !fs.solve(fT) {
			copy(fs.x, fs.xSnap)
			return nil, 0, false, nil
		}
		fs.stats.CutRounds++
		if !fs.cut(fT) {
			break
		}
	}
	fs.fCur = fT
	out := make([]int, n)
	copy(out, fs.x)
	normalize(fs.rg, out)
	return out, fs.period, true, nil
}

// relaxArc relaxes the constraint a on v's list if the labeling violates
// it, queueing its tail u, and reports whether it did.
func (fs *FeasSolver) relaxArc(v int, a feasArc) bool {
	nd := fs.x[v] + int(a.bound)
	if nd >= fs.x[a.u] {
		return false
	}
	fs.x[a.u] = nd
	fs.parent[a.u] = int32(v)
	fs.parentD[a.u] = a.d
	fs.parentB[a.u] = a.bound
	fs.plen[a.u] = fs.plen[v] + 1
	fs.stats.Relaxations++
	fs.wl.Push(int(a.u))
	return true
}

// solve runs SPFA from the queued frontier over the constraints active at
// fT until the labeling satisfies all of them (true) or a negative cycle
// shows (false, witness recorded). Cycles are detected early by a
// periodic parent-forest walk plus a relaxation-walk length bound (see
// graph.SolveDifferenceIntSPFA for the scheme).
func (fs *FeasSolver) solve(fT float64) bool {
	n := fs.rg.N()
	checkEvery := n
	if checkEvery < 64 {
		checkEvery = 64
	}
	sinceCheck := 0
	for {
		v, ok := fs.wl.Pop()
		if !ok {
			return true
		}
		a := fs.arcs[v]
		pl := fs.activeLen(v, fT)
		for i := 0; i < pl; i++ {
			if !fs.relaxArc(v, a[i]) {
				continue
			}
			sinceCheck++
			if u := a[i].u; fs.plen[u] > int32(n) {
				if cyc := graph.FindParentCycle(fs.parent); cyc != nil {
					fs.recordWitness(cyc)
					return false
				}
				fs.plen[u] = forestDepth(fs.parent, u)
				sinceCheck = 0
			}
		}
		if sinceCheck >= checkEvery {
			sinceCheck = 0
			if cyc := graph.FindParentCycle(fs.parent); cyc != nil {
				fs.recordWitness(cyc)
				return false
			}
		}
	}
}

// cut runs one timing pass over the graph retimed by the current labeling
// and adds a path cut for every vertex whose arrival exceeds the threshold
// fT, relaxing the labeling against each. It reports whether any cut was
// added; false means the labeling meets the probed period.
func (fs *FeasSolver) cut(fT float64) bool {
	cuts := fs.findCuts(fs.x, fT)
	for _, c := range cuts {
		fs.insert(int(c.v), feasArc{u: c.u, bound: c.bound, d: c.d})
	}
	fs.stats.Cuts += int64(len(cuts))
	return len(cuts) > 0
}

// findCuts runs one timing pass over the graph retimed by labeling x and
// returns a path cut for every vertex whose arrival exceeds the threshold
// fT, each the end of a too-long register-free path; none means x meets
// the period. It reads x only, so it can time a labeling other than the
// probe's own. The slice is scratch, valid until the next call.
func (fs *FeasSolver) findCuts(x []int, fT float64) []pendingCut {
	fs.time(x)
	delay, crit, arr := fs.rg.delay, fs.crit, fs.arr
	fs.pending = fs.pending[:0]
	for _, v := range fs.order {
		if arr[v] <= fT {
			continue
		}
		// Walk back along the critical path to the nearest u whose path to
		// v is longer than the threshold. The walk sums delays from v
		// backwards; the key sums them in path order, as the timing pass
		// does, and the walk goes on while rounding keeps that key at or
		// below the threshold. At the path's start the key is arr[v]
		// itself, so the walk always ends with a key above it.
		fs.path = append(fs.path[:0], v)
		u, back := v, delay[v]
		for back <= fT && crit[u] >= 0 {
			u = crit[u]
			back += delay[u]
			fs.path = append(fs.path, u)
		}
		for {
			key := 0.0
			for i := len(fs.path) - 1; i >= 0; i-- {
				key += delay[fs.path[i]]
			}
			if key > fT || crit[u] < 0 {
				// The path u→v is register-free, so its original register
				// count is x(u) − x(v).
				fs.pending = append(fs.pending, pendingCut{u: u, v: v, bound: int32(x[u] - x[v] - 1), d: key})
				break
			}
			u = crit[u]
			fs.path = append(fs.path, u)
		}
	}
	return fs.pending
}

// insert adds a cut to v's pool list at its key's position and relaxes
// against it. The cut's key lies above the probe's threshold, so it joins
// v's active prefix.
func (fs *FeasSolver) insert(v int, c feasArc) {
	fs.place(v, c)
	if fs.prefixEpoch[v] == fs.epoch {
		fs.prefixLen[v]++
	}
	fs.relaxArc(v, c)
}

// place inserts c into v's pool list at its key's position.
func (fs *FeasSolver) place(v int, c feasArc) {
	a := fs.arcs[v]
	i := arcPrefix(a, c.d)
	a = append(a, feasArc{})
	copy(a[i+1:], a[i:])
	a[i] = c
	fs.arcs[v] = a
}

// time computes arrival times over the graph retimed by labeling x
// (Kahn's algorithm over its register-free edges), filling order
// with a topological order, arr with arrivals — each vertex's delay plus
// the latest arrival among its register-free predecessors, summed as
// Graph.Arrivals sums it — crit with the predecessor that arrival came
// from (-1 when none arrives later than 0), and period with the largest
// arrival (0 on an empty graph, as Graph.Period reads it).
func (fs *FeasSolver) time(x []int) {
	indeg, crit, arr := fs.indeg, fs.crit, fs.arr
	n := len(x)
	for v := 0; v < n; v++ {
		indeg[v] = 0
		crit[v] = -1
		arr[v] = 0
	}
	for v := 0; v < n; v++ {
		for k := fs.outStart[v]; k < fs.outStart[v+1]; k++ {
			if t := fs.outTo[k]; int(fs.outW[k])+x[t]-x[v] == 0 {
				indeg[t]++
			}
		}
	}
	fs.order = fs.order[:0]
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			fs.order = append(fs.order, int32(v))
		}
	}
	// arr[v] holds the latest predecessor arrival until v is dequeued, then
	// v's own arrival.
	fs.period = 0
	for head := 0; head < len(fs.order); head++ {
		v := fs.order[head]
		arr[v] += fs.rg.delay[v]
		if arr[v] > fs.period {
			fs.period = arr[v]
		}
		for k := fs.outStart[v]; k < fs.outStart[v+1]; k++ {
			t := fs.outTo[k]
			if int(fs.outW[k])+x[t]-x[v] != 0 {
				continue
			}
			if arr[v] > arr[t] {
				arr[t] = arr[v]
				crit[t] = v
			}
			if indeg[t]--; indeg[t] == 0 {
				fs.order = append(fs.order, t)
			}
		}
	}
	if len(fs.order) != n {
		// The labeling satisfies every edge constraint, and retiming keeps
		// each cycle's register count, so a register-free cycle here
		// would be one in the validated graph.
		panic("retime: register-free cycle in a retimed graph (internal error)")
	}
}

// recordWitness extracts the period-rejection witness of a violated
// constraint cycle: the smallest activation d among its constraints. The
// cycle's bounds are period-independent, so any period whose activation
// threshold lies below that d keeps the whole cycle live and negative —
// later probes there are infeasible with no solve at all.
func (fs *FeasSolver) recordWitness(cyc []int32) {
	minD := math.Inf(1)
	sum := 0
	for _, v := range cyc {
		if fs.parentD[v] < minD {
			minD = fs.parentD[v]
		}
		sum += int(fs.parentB[v])
	}
	if sum >= 0 {
		// A parent cycle of strict relaxations is always negative; guard
		// the witness anyway so a broken invariant can't reject feasible
		// periods.
		panic("retime: non-negative parent cycle (internal error)")
	}
	if minD > fs.witnessMinD {
		fs.witnessMinD = minD
	}
}

// forestDepth returns the arc count from u to its root in an acyclic
// parent forest (the deflation step of the walk-length bound).
func forestDepth(parent []int32, u int32) int32 {
	var d int32
	for v := parent[u]; v >= 0; v = parent[v] {
		d++
	}
	return d
}
