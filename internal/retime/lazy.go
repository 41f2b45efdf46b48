package retime

import (
	"runtime"
	"sync"
	"sync/atomic"

	"lacret/internal/graph"
)

// DefaultLazyCachePairs is the default row-cache budget of the lazy engine,
// in cached SourcePairs across all shards (~24 bytes each, so the default
// caps cache memory around 100 MB). The cache is an optimization only —
// evicted rows are recomputed on demand — so the budget trades repeated
// sweep work against resident memory.
const DefaultLazyCachePairs = 4 << 20

// LazySource is the on-demand ConstraintSource: instead of materializing
// the O(V²) W/D matrices, it answers Row(u) by running one per-source
// sweep (graph.WDSolver.FromSourceAbove) when asked, with
//
//   - a delay-pruned frontier: per-vertex suffix-delay upper bounds
//     (graph.DelaySuffixBound, computed once) let a sweep abandon a source
//     outright when no path out of it can exceed the floor's activation
//     threshold, and skip delay propagation from vertices that can no
//     longer matter;
//   - sharding across GOMAXPROCS: sources hash to per-shard solvers with
//     O(V) scratch each, so concurrent Row calls (ClockConstraints fans
//     out across workers) sweep in parallel without shared mutable state;
//   - an LRU row cache per shard, bounded by a global pair budget, so
//     callers that read a row more than once sweep it once.
//
// Rows are bit-identical to rows assembled from the exact all-pairs W/D
// matrices at the same floor: the sweep's D values above the cut are exact
// (see FromSourceAbove), W labels are always exact, and both assemble rows
// through the same candidate test (appendRowPair). The package tests keep
// that all-pairs build as the oracle.
type LazySource struct {
	rg     *Graph
	floor  float64
	cut    float64
	suffix []float64
	shards []lazyShard

	sweeps    atomic.Int64
	abandoned atomic.Int64
	hits      atomic.Int64
	evictions atomic.Int64
	rows      atomic.Int64
	pairs     atomic.Int64
}

// lazyShard is one cache+solver shard. The mutex covers the shard's sweep
// scratch and its slice of the LRU; a row computed under the lock is
// returned (and cached) as an immutable slice, so readers holding evicted
// rows stay valid.
type lazyShard struct {
	mu       sync.Mutex
	src      *LazySource
	sv       *graph.WDSolver
	res      []graph.WDDist
	entries  map[int32]*lazyRow
	head     *lazyRow // most recently used
	tail     *lazyRow // least recently used
	pairs    int64
	maxPairs int64
}

// lazyRow is an LRU cache node.
type lazyRow struct {
	u          int32
	row        []SourcePair
	prev, next *lazyRow
}

// lazyCacheScale is the process-wide row-cache budget scale, in percent
// (100 = configured budgets). It is the memory-pressure shed hook: a
// governor lowers it to cut the caches' residency without touching the
// sources themselves (they are plumbed deep into running passes).
var lazyCacheScale atomic.Int64

func init() { lazyCacheScale.Store(100) }

// SetLazyCacheScale scales every LazySource row-cache budget — current and
// future, process-wide — to pct percent of its configured size, clamped to
// [1, 100]. Shards converge lazily: each one evicts down to the reduced
// budget on its next insertion, so shrinking costs nothing on the hot
// path. Returns the previous scale. The cache is an optimization only, so
// any scale preserves bit-identical results.
func SetLazyCacheScale(pct int) int {
	if pct < 1 {
		pct = 1
	}
	if pct > 100 {
		pct = 100
	}
	return int(lazyCacheScale.Swap(int64(pct)))
}

// LazyCacheScale reports the current process-wide scale in percent.
func LazyCacheScale() int { return int(lazyCacheScale.Load()) }

// budget is the shard's pair budget after the global scale.
func (sh *lazyShard) budget() int64 {
	b := sh.maxPairs * lazyCacheScale.Load() / 100
	if b < 1 {
		b = 1
	}
	return b
}

// NewLazySource builds the lazy engine for periods in (floor, ∞).
// cachePairs bounds the total cached SourcePairs across shards
// (0 selects DefaultLazyCachePairs). Construction is O(V + E): it computes
// the suffix-delay bounds and allocates the shards, but runs no sweeps.
func NewLazySource(rg *Graph, floor float64, cachePairs int64) *LazySource {
	if cachePairs <= 0 {
		cachePairs = DefaultLazyCachePairs
	}
	nshards := runtime.GOMAXPROCS(0)
	if nshards < 1 {
		nshards = 1
	}
	if n := rg.N(); nshards > n && n > 0 {
		nshards = n
	}
	ls := &LazySource{
		rg:     rg,
		floor:  floor,
		cut:    activation(floor),
		suffix: rg.g.DelaySuffixBound(rg.delay),
		shards: make([]lazyShard, nshards),
	}
	per := cachePairs / int64(nshards)
	if per < 1 {
		per = 1
	}
	for i := range ls.shards {
		sh := &ls.shards[i]
		sh.src = ls
		sh.sv = graph.NewWDSolver(rg.g)
		sh.res = make([]graph.WDDist, rg.N())
		sh.entries = make(map[int32]*lazyRow)
		sh.maxPairs = per
	}
	return ls
}

func (ls *LazySource) N() int         { return ls.rg.N() }
func (ls *LazySource) Floor() float64 { return ls.floor }

func (ls *LazySource) Mem() SourceMem {
	return SourceMem{
		CachedRows:  ls.rows.Load(),
		CachedPairs: ls.pairs.Load(),
		Evictions:   ls.evictions.Load(),
		Sweeps:      ls.sweeps.Load(),
		Abandoned:   ls.abandoned.Load(),
		Hits:        ls.hits.Load(),
	}
}

// Row serves source u, sweeping on a cache miss. Safe for concurrent use;
// calls for sources on distinct shards proceed in parallel.
func (ls *LazySource) Row(u int) []SourcePair {
	// Source abandonment: no path out of u can exceed the cut, so the row
	// is empty — O(1), no lock, no sweep, nothing to cache.
	if ls.rg.delay[u]+ls.suffix[u] <= ls.cut {
		ls.abandoned.Add(1)
		return nil
	}
	sh := &ls.shards[u%len(ls.shards)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ent, ok := sh.entries[int32(u)]; ok {
		ls.hits.Add(1)
		sh.moveToFront(ent)
		// The global scale may have dropped since these rows were cached;
		// without this, a fully-resident hot set would never shed.
		sh.evictTo(sh.budget(), ent)
		return ent.row
	}
	row := sh.sweep(u)
	sh.insert(&lazyRow{u: int32(u), row: row})
	return row
}

// sweep runs the pruned per-source sweep and assembles the candidate row.
// Caller holds the shard lock (the solver scratch is shard-local).
func (sh *lazyShard) sweep(u int) []SourcePair {
	ls := sh.src
	if ls.rg.g.OutDegree(u) == 0 {
		// Nothing but u itself is reachable; self-pairs are never
		// candidates. (The abandonment test usually catches this first:
		// suffix is 0, so it only gets here when delay[u] alone exceeds
		// the cut.)
		return nil
	}
	if !sh.sv.FromSourceAbove(u, ls.rg.delay, ls.cut, ls.suffix, sh.res) {
		ls.abandoned.Add(1)
		return nil
	}
	ls.sweeps.Add(1)
	res := sh.res
	var row []SourcePair
	for v := range res {
		row = appendRowPair(ls.rg, row, u, v, int32(res[v].W), res[v].D, ls.cut,
			func(x int) (int32, float64) { return int32(res[x].W), res[x].D })
	}
	sortRow(row)
	return row
}

// insert adds a row at the front of the shard LRU and evicts from the tail
// past the pair budget. A row larger than the whole budget is still served
// and cached momentarily; the next insert evicts it.
func (sh *lazyShard) insert(ent *lazyRow) {
	sh.entries[ent.u] = ent
	sh.pushFront(ent)
	sh.pairs += int64(len(ent.row))
	sh.src.rows.Add(1)
	sh.src.pairs.Add(int64(len(ent.row)))
	sh.evictTo(sh.budget(), ent)
}

// evictTo drops LRU-tail rows until the shard's cached pairs fit budget,
// never evicting keep (the row being served). Caller holds the shard lock.
func (sh *lazyShard) evictTo(budget int64, keep *lazyRow) {
	for sh.pairs > budget && sh.tail != nil && sh.tail != keep {
		ev := sh.tail
		sh.unlink(ev)
		delete(sh.entries, ev.u)
		sh.pairs -= int64(len(ev.row))
		sh.src.rows.Add(-1)
		sh.src.pairs.Add(-int64(len(ev.row)))
		sh.src.evictions.Add(1)
	}
}

func (sh *lazyShard) pushFront(ent *lazyRow) {
	ent.prev, ent.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = ent
	}
	sh.head = ent
	if sh.tail == nil {
		sh.tail = ent
	}
}

func (sh *lazyShard) unlink(ent *lazyRow) {
	if ent.prev != nil {
		ent.prev.next = ent.next
	} else {
		sh.head = ent.next
	}
	if ent.next != nil {
		ent.next.prev = ent.prev
	} else {
		sh.tail = ent.prev
	}
	ent.prev, ent.next = nil, nil
}

func (sh *lazyShard) moveToFront(ent *lazyRow) {
	if sh.head == ent {
		return
	}
	sh.unlink(ent)
	sh.pushFront(ent)
}
