package retime

import (
	"math"
	"sort"
)

// SourcePair is one candidate clock-constraint pair served by a
// ConstraintSource: for source u and destination V, the clock constraint
// r(u) − r(V) ≤ Bound (= W(u,V) − 1) activates at period T iff
// D > activation(T).
//
// DPrune folds in the dominance rule of ClockConstraints: it is the
// largest D(u,v') over W-tight in-edges (v',V) when that value exceeds the
// source's cut, and −Inf otherwise (below the cut the exact value can never
// matter: every probe-able period's activation threshold is at least the
// cut, so the dominating pair is inactive there regardless). A consumer at
// period T drops the pair as implied iff DPrune > activation(T); pairs
// dominated wherever they are active never appear at all, because rows
// exclude pairs with D ≤ DPrune.
type SourcePair struct {
	V      int32
	Bound  int32
	D      float64
	DPrune float64
}

// SourceMem is a ConstraintSource's memory/work accounting, surfaced as obs
// gauges and stage counters.
type SourceMem struct {
	// DenseBytes is always 0. It held the resident footprint of the
	// retired dense W/D engine and stays only so existing readers of the
	// accounting keep compiling.
	DenseBytes int64
	// CachedRows / CachedPairs size the lazy engine's row cache.
	CachedRows  int64
	CachedPairs int64
	// Evictions counts rows dropped from the cache to stay in budget.
	Evictions int64
	// Sweeps counts per-source W/D sweeps run; Abandoned counts sources
	// skipped outright by the delay-pruned frontier (no path can exceed
	// the cut); Hits counts rows served from the cache.
	Sweeps    int64
	Abandoned int64
	Hits      int64
}

// ConstraintSource serves the W/D dependence of retiming row by row: for a
// source vertex u, the register-minimal pairs whose clock constraint can
// activate at some period above the source's floor, ready for constraint
// generation (ClockConstraints). Its rows cover exactly the periods at or
// above Floor(). The planner builds one per pass in its constraints
// stage, floored at Tclk, the only period it generates constraints for;
// the period search reads no rows (it cuts paths instead, see
// FeasSolver).
//
// The production implementation is the lazy on-demand per-source sweep
// engine (NewLazySource); the package tests check it against an all-pairs
// W/D oracle.
type ConstraintSource interface {
	// N is the vertex count of the graph the source was built for.
	N() int
	// Floor is the period floor: rows contain exactly the pairs with
	// D > activation(Floor()). Consumers must not ask about periods
	// below it.
	Floor() float64
	// Row returns source u's candidate pairs, sorted by D descending
	// (V ascending at ties), excluding self-pairs, unreachable
	// destinations, pairs at or below the floor's activation threshold,
	// and pairs dominated at every period where they are active
	// (D ≤ DPrune). The returned slice is shared — callers must not
	// modify it. Row is safe for concurrent use.
	Row(u int) []SourcePair
	// Mem reports the source's memory/work accounting.
	Mem() SourceMem
}

// appendRowPair applies the shared per-destination candidate test and
// appends the qualifying pair: destination v of source u with labels
// (wv, dv), where wd supplies the (W, D) labels of u's row for the
// dominance scan over v's in-edges. The lazy engine and the tests' dense
// W/D oracle both funnel through this, so their rows are bit-identical by
// construction.
func appendRowPair(rg *Graph, row []SourcePair, u, v int, wv int32, dv float64, cut float64,
	wd func(x int) (int32, float64)) []SourcePair {
	if v == u || wv < 0 || dv <= cut {
		return row
	}
	dprune := math.Inf(-1)
	for _, ei := range rg.g.In(v) {
		e := rg.g.Edge(ei)
		vp := e.From
		if vp == v || vp == u {
			continue
		}
		if wp, dp := wd(vp); wp >= 0 && wp+int32(e.W) == wv && dp > dprune {
			dprune = dp
		}
	}
	if dv <= dprune {
		return row
	}
	if dprune <= cut {
		// Below the cut the dominating pair can never be active, and the
		// lazy engine's frontier pruning may understate D values in that
		// range; clamping keeps its rows identical to the exact all-pairs
		// rows and the consumers' verdicts unchanged.
		dprune = math.Inf(-1)
	}
	return append(row, SourcePair{V: int32(v), Bound: wv - 1, D: dv, DPrune: dprune})
}

// sortRow orders a row by D descending, V ascending at ties, so the
// pairs active at any period form a prefix.
func sortRow(row []SourcePair) {
	sort.Slice(row, func(i, j int) bool {
		if row[i].D != row[j].D {
			return row[i].D > row[j].D
		}
		return row[i].V < row[j].V
	})
}

// rowPrefixAbove returns the number of leading pairs with D > cut (rows are
// D-descending, so the qualifying set is a prefix).
func rowPrefixAbove(row []SourcePair, cut float64) int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid].D > cut {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
