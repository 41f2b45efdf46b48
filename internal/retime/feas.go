package retime

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"lacret/internal/graph"
)

// ProbeStats aggregates the work of a feasibility-probe sequence — the
// per-search counters surfaced by the observed period search
// (retime.feas_warm, retime.pairs_scanned) and the planning trace.
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
	// IndexPairs is the size of the D-sorted candidate pair index — the
	// clock-constraint universe the whole search can ever touch above the
	// floor, after dominance pruning.
	IndexPairs int64
	// PairsScanned counts candidate pairs whose activation status was
	// examined across all probes. The cold search rescans all O(V²)
	// pairs per probe; the incremental one touches only the pairs whose
	// activation changed since the previous feasible labeling.
	PairsScanned int64
	// PairsActivated counts pairs materialized into the live constraint
	// pool (each pair is materialized at most once per solver).
	PairsActivated int64
	// Relaxations counts successful label relaxations across all probes.
	Relaxations int64
}

// indexPair is one candidate clock pair in the solver's activation index:
// the destination v, the constraint bound W(u,v)−1, and the activation key
// D(u,v). It is SourcePair minus the DPrune field — always-dominated pairs
// are already absent from source rows, and the solver keeps (soundly
// redundant) partially-dominated pairs active, so DPrune is dead weight
// here. At planned-s5378 scale the index holds ~750M pairs, so the 8 bytes
// per pair are a third of the solver's resident footprint.
type indexPair struct {
	v     int32
	bound int32
	d     float64
}

// feasArc is one live difference constraint r(u) − r(v) ≤ bound, stored on
// the adjacency list of v (relaxation rescans it when the label of v
// drops). d is the activation key: the constraint participates in a probe
// at period T iff d > T + periodTol(T); edge and pin constraints carry
// d = +Inf (always active).
type feasArc struct {
	u     int32
	bound int32
	d     float64
}

// FeasSolver is a persistent feasibility-probe solver for the minimum-period
// binary search. It replaces the per-probe "rebuild all constraints, run
// cold Bellman–Ford" cycle with three incremental structures:
//
//   - A candidate pair index built once from a ConstraintSource (the
//     lazy sweep engine): per source row u, the
//     destinations v whose clock constraint can ever activate (D(u,v)
//     above the period floor), sorted by D descending, with the dominance
//     rule of ClockConstraints folded in as an interval condition
//     (a pair dominated at every period where it is active is dropped).
//   - Lazy constraint materialization: a probe at period T materializes
//     only the index pairs whose activation threshold first crosses T,
//     appending them to per-vertex adjacency lists; each pair is
//     materialized at most once per solver lifetime.
//   - FEAS-style warm relaxation: the labeling of the last feasible probe
//     is kept, and a probe at a lower T relaxes only from the frontier of
//     newly activated violated constraints (SPFA worklist) instead of
//     sweeping all vertices; an infeasible probe restores the labeling and
//     records the negative cycle's witness — the smallest D on the cycle —
//     so every later probe below that witness is rejected in O(1).
//   - A period floor (Graph.PeriodFloor): the iteration bound less a
//     tolerance margin. Probes below it are rejected in O(1), and the
//     index holds no pair that only activates there.
//
// The verdicts and labelings are exactly those of the cold path
// (BuildConstraints + Feasible): the warm relaxation converges to the
// same component-wise maximum solution, so a search driven by this solver
// is bit-identical to one driven by cold probes.
//
// A solver serves one goroutine at a time.
type FeasSolver struct {
	rg    *Graph
	src   ConstraintSource
	floor float64

	// Candidate clock-pair index, per source row u, D descending.
	rows    [][]indexPair
	rowNext []int32

	// Live constraint pool: arcs[v] sorted by d descending (edge/pin base
	// arcs first at d=+Inf). matFloor is the activation watermark: every
	// index pair with D > matFloor has been materialized.
	arcs     [][]feasArc
	matFloor float64

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

	// Scratch.
	wl          *graph.Worklist
	parent      []int32
	parentD     []float64
	parentB     []int32
	plen        []int32
	prefixLen   []int32
	prefixEpoch []int32
	epoch       int32
	touched     []int32
	touchStamp  []int32
	touchLen    []int32
	matEpoch    int32

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

// NewFeasSolver builds a persistent probe solver over a ConstraintSource,
// floored at the graph's PeriodFloor: no period below it is achievable,
// so probes there are rejected in O(1) and pairs whose constraint can only
// activate below it are excluded from the index. The source's own floor
// must not exceed the period floor (its rows must cover every period the
// solver solves).
//
// Building the candidate index is the construction cost — with a lazy
// source it runs one W/D sweep per live vertex — so the build observes ctx
// and aborts with its error on expiry. Callers running anytime searches
// treat that abort like a deadline between probes (see MinPeriod).
func NewFeasSolver(ctx context.Context, rg *Graph, src ConstraintSource) (*FeasSolver, error) {
	n := rg.N()
	if src.N() != n {
		return nil, fmt.Errorf("retime: constraint source for %d vertices, graph has %d", src.N(), n)
	}
	floor := rg.PeriodFloor()
	if src.Floor() > floor {
		return nil, fmt.Errorf("retime: constraint source floor %g above period floor %g", src.Floor(), floor)
	}
	fs := &FeasSolver{
		rg:          rg,
		src:         src,
		floor:       floor,
		arcs:        make([][]feasArc, n),
		matFloor:    math.Inf(1),
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
		touchStamp:  make([]int32, n),
		touchLen:    make([]int32, n),
	}
	// Base arcs: the T-independent edge-weight and pinning constraints,
	// always active (d = +Inf), installed ahead of every clock arc.
	for _, c := range rg.EdgeConstraints() {
		fs.arcs[c.V] = append(fs.arcs[c.V], feasArc{u: int32(c.U), bound: int32(c.Bound), d: math.Inf(1)})
	}
	for _, c := range rg.PinConstraints() {
		fs.arcs[c.V] = append(fs.arcs[c.V], feasArc{u: int32(c.U), bound: int32(c.Bound), d: math.Inf(1)})
	}
	if err := fs.buildIndex(ctx); err != nil {
		return nil, err
	}
	return fs, nil
}

// indexParallelThreshold is the vertex count below which the index build
// runs on the calling goroutine (goroutine fan-out costs more than it saves
// on tiny graphs).
const indexParallelThreshold = 64

// buildIndex fills the per-row candidate pair index from the constraint
// source. A pair (u,v) is a candidate iff its clock constraint can
// activate at some period at or above the floor (D(u,v) >
// activation(floor)) and is not dominated throughout its activation
// range — exactly the rows the source serves at its own floor, narrowed
// to the solver's floor when the two differ (rows are D-descending, so
// the narrowing is a prefix). Rows are independent, so the build fans
// out across workers; Row is concurrency-safe by contract.
func (fs *FeasSolver) buildIndex(ctx context.Context) error {
	n := fs.rg.N()
	fs.rows = make([][]indexPair, n)
	fs.rowNext = make([]int32, n)
	cut := activation(fs.floor)
	var total atomic.Int64
	buildRow := func(u int) {
		row := fs.src.Row(u)
		row = row[:rowPrefixAbove(row, cut)]
		// Pack into 16-byte index pairs instead of subslicing: drops the
		// DPrune field the solver never reads, and never pins the source's
		// wider backing array.
		packed := make([]indexPair, len(row))
		for i, p := range row {
			packed[i] = indexPair{v: p.V, bound: p.Bound, d: p.D}
		}
		fs.rows[u] = packed
		total.Add(int64(len(packed)))
	}
	// The build dominates construction cost with a lazy source (one sweep
	// per live row), so poll the context between row batches; an aborted
	// build discards the partial index with the returned error.
	const ctxEvery = 64
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if n < indexParallelThreshold || workers <= 1 {
		for u := 0; u < n; u++ {
			if u%ctxEvery == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			buildRow(u)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for done := 0; ; done++ {
					if done%ctxEvery == 0 && ctx.Err() != nil {
						return
					}
					u := int(next.Add(1)) - 1
					if u >= n {
						return
					}
					buildRow(u)
				}
			}()
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	fs.stats.IndexPairs = total.Load()
	return nil
}

// Stats returns the accumulated probe counters.
func (fs *FeasSolver) Stats() ProbeStats { return fs.stats }

// materialize appends every not-yet-live index pair with D > fT to the
// adjacency lists. Appended suffixes are re-sorted so each list stays in
// descending-d order (existing entries all have d above the previous
// watermark, new ones at or below it).
func (fs *FeasSolver) materialize(fT float64) {
	if fT >= fs.matFloor {
		return
	}
	fs.matEpoch++
	fs.touched = fs.touched[:0]
	for u := range fs.rows {
		row := fs.rows[u]
		j := int(fs.rowNext[u])
		if j >= len(row) || row[j].d <= fT {
			continue
		}
		for ; j < len(row) && row[j].d > fT; j++ {
			v := row[j].v
			if fs.touchStamp[v] != fs.matEpoch {
				fs.touchStamp[v] = fs.matEpoch
				fs.touchLen[v] = int32(len(fs.arcs[v]))
				fs.touched = append(fs.touched, v)
			}
			fs.arcs[v] = append(fs.arcs[v], feasArc{u: int32(u), bound: row[j].bound, d: row[j].d})
			fs.stats.PairsActivated++
		}
		fs.rowNext[u] = int32(j)
	}
	for _, v := range fs.touched {
		suffix := fs.arcs[v][fs.touchLen[v]:]
		sort.Slice(suffix, func(i, j int) bool {
			if suffix[i].d != suffix[j].d {
				return suffix[i].d > suffix[j].d
			}
			return suffix[i].u < suffix[j].u
		})
	}
	fs.matFloor = fT
}

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
// when it is. Verdicts and labelings are identical to the cold
// BuildConstraints+Feasible path. A T below the solver's floor (which
// includes every T some single vertex delay exceeds) is infeasible in
// O(1); non-positive or NaN T reports infeasible, matching the cold path's
// ErrInfeasible handling in the period search.
func (fs *FeasSolver) Probe(T float64) (r []int, feasible bool) {
	fs.stats.Probes++
	if math.IsNaN(T) || T <= 0 {
		return nil, false
	}
	if T < fs.floor {
		fs.stats.BoundRejects++
		return nil, false
	}
	fT := activation(T)
	if fs.witnessMinD > fT {
		// A recorded negative cycle stays fully active at T.
		fs.stats.WitnessRejects++
		return nil, false
	}
	if fT > fs.fCur {
		fs.reset()
	} else if !math.IsInf(fs.fCur, 1) {
		fs.stats.Warm++
	}
	fs.materialize(fT)
	n := fs.rg.N()
	fs.epoch++
	fs.wl.Reset()
	copy(fs.xSnap, fs.x)
	for i := range fs.parent {
		fs.parent[i] = -1
		fs.plen[i] = 0
	}
	relax := func(v int, a feasArc) {
		fs.x[a.u] = fs.x[v] + int(a.bound)
		fs.parent[a.u] = int32(v)
		fs.parentD[a.u] = a.d
		fs.parentB[a.u] = a.bound
		fs.stats.Relaxations++
		fs.wl.Push(int(a.u))
	}
	// Seed: scan the constraints whose activation status changed between
	// the warm threshold and this probe — indices in (prefix(fCur),
	// prefix(fT)) of each list — and relax the violated ones. The warm
	// labeling already satisfies everything active at fCur.
	for v := 0; v < n; v++ {
		a := fs.arcs[v]
		lo := arcPrefix(a, fs.fCur)
		hi := fs.activeLen(v, fT)
		fs.stats.PairsScanned += int64(hi - lo)
		for i := lo; i < hi; i++ {
			if nd := fs.x[v] + int(a[i].bound); nd < fs.x[a[i].u] {
				relax(v, a[i])
				fs.plen[a[i].u] = fs.plen[v] + 1
			}
		}
	}
	// SPFA from the violated frontier, with early negative-cycle
	// detection: a periodic parent-forest walk plus a relaxation-walk
	// length bound (see graph.SolveDifferenceIntSPFA for the scheme).
	checkEvery := n
	if checkEvery < 64 {
		checkEvery = 64
	}
	sinceCheck := 0
	for {
		v, ok := fs.wl.Pop()
		if !ok {
			break
		}
		a := fs.arcs[v]
		pl := fs.activeLen(v, fT)
		xv, pv := fs.x[v], fs.plen[v]
		for i := 0; i < pl; i++ {
			if nd := xv + int(a[i].bound); nd < fs.x[a[i].u] {
				relax(v, a[i])
				sinceCheck++
				if fs.plen[a[i].u] = pv + 1; fs.plen[a[i].u] > int32(n) {
					if cyc := graph.FindParentCycle(fs.parent); cyc != nil {
						fs.recordWitness(cyc)
						copy(fs.x, fs.xSnap)
						return nil, false
					}
					fs.plen[a[i].u] = forestDepth(fs.parent, a[i].u)
					sinceCheck = 0
				}
			}
		}
		if sinceCheck >= checkEvery {
			sinceCheck = 0
			if cyc := graph.FindParentCycle(fs.parent); cyc != nil {
				fs.recordWitness(cyc)
				copy(fs.x, fs.xSnap)
				return nil, false
			}
		}
	}
	fs.fCur = fT
	out := make([]int, n)
	copy(out, fs.x)
	normalize(fs.rg, out)
	return out, true
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
