package job

import (
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"lacret/internal/obs"
)

// ErrMemoryPressure is the admission-control rejection: the live heap is
// above the high-water mark of the memory limit and shedding did not bring
// it back down, so taking another plan risks the OOM killer. The service
// layer maps it to 429 with Retry-After, the polite twin of ErrQueueFull.
type ErrMemoryPressure struct {
	Heap, Limit uint64
	RetryAfter  time.Duration
}

func (e *ErrMemoryPressure) Error() string {
	return fmt.Sprintf("job: memory pressure (heap %d of limit %d), retry after %s",
		e.Heap, e.Limit, e.RetryAfter)
}

// defaultMemHighWater is the admission threshold as a fraction of the
// memory limit: above it, new submissions shed caches and, failing that,
// are rejected. Chosen below 1.0 so a plan already in flight has headroom
// to finish.
const defaultMemHighWater = 0.85

// memLowWaterRatio scales the high-water mark down to the recovery
// threshold: once the heap falls below it the governor leaves the
// shedding state, and the next crossing of the high-water mark sheds
// again. The hysteresis gap keeps the governor (and the /readyz state it
// feeds) from flapping on every submission around the boundary.
const memLowWaterRatio = 0.7

// memGovernor is the admission controller under memory pressure. It
// compares the live heap against a memory limit on every submission,
// sheds the manager's report cache at the high-water mark, and rejects
// when shedding is not enough. All methods are safe for concurrent use.
type memGovernor struct {
	limit     uint64
	highWater float64
	readHeap  func() uint64
	shed      func()
	log       *slog.Logger // nil = logging disabled

	mu       sync.Mutex
	shedding bool

	cShed, cRejected *obs.Counter
	gHeap, gLimit    *obs.Gauge
}

// resolveMemLimit picks the effective memory limit: an explicit maxMem
// wins, otherwise the runtime's GOMEMLIMIT when one is set. Zero means no
// limit — the governor stays disabled.
func resolveMemLimit(maxMem int64) uint64 {
	if maxMem > 0 {
		return uint64(maxMem)
	}
	// SetMemoryLimit(-1) reads the current limit without changing it;
	// MaxInt64 is the documented "unlimited" default.
	if lim := debug.SetMemoryLimit(-1); lim > 0 && lim < math.MaxInt64 {
		return uint64(lim)
	}
	return 0
}

// liveHeap is the default heap probe.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// newMemGovernor builds the governor, or returns nil when no limit
// applies (admission control disabled). shed is the cache hook the
// manager provides; log is the manager's logger (nil disabled).
func newMemGovernor(limit uint64, highWater float64, readHeap func() uint64, shed func(), reg *obs.Registry, log *slog.Logger) *memGovernor {
	if limit == 0 {
		return nil
	}
	if highWater <= 0 || highWater > 1 {
		highWater = defaultMemHighWater
	}
	if readHeap == nil {
		readHeap = liveHeap
	}
	g := &memGovernor{
		limit: limit, highWater: highWater, readHeap: readHeap,
		shed: shed, log: log,
		cShed:     reg.Counter("job.mem_shed"),
		cRejected: reg.Counter("job.mem_rejected"),
		gHeap:     reg.Gauge("job.heap_bytes"),
		gLimit:    reg.Gauge("job.mem_limit_bytes"),
	}
	g.gLimit.Set(float64(limit))
	return g
}

// admit gates one submission. Above the high-water mark it sheds the
// caches, forces a collection, and re-reads the heap; still above means
// rejection with *ErrMemoryPressure. Below the low-water mark the governor
// leaves the shedding state.
func (g *memGovernor) admit() error {
	heap := g.readHeap()
	g.gHeap.Set(float64(heap))
	high := uint64(g.highWater * float64(g.limit))
	low := uint64(g.highWater * memLowWaterRatio * float64(g.limit))

	g.mu.Lock()
	defer g.mu.Unlock()
	if heap < high {
		if g.shedding && heap < low {
			g.shedding = false
			if g.log != nil {
				g.log.Info("memory pressure cleared",
					slog.Uint64("heap", heap), slog.Uint64("limit", g.limit))
			}
		}
		return nil
	}
	if !g.shedding {
		g.shedding = true
		g.cShed.Inc()
		if g.shed != nil {
			g.shed()
		}
		if g.log != nil {
			g.log.Warn("memory pressure: shedding caches",
				slog.Uint64("heap", heap), slog.Uint64("limit", g.limit))
		}
		// The shed dropped references; collect so the re-read below sees
		// the heap the next plan would actually start from.
		runtime.GC()
		heap = g.readHeap()
		g.gHeap.Set(float64(heap))
		if heap < high {
			return nil
		}
	}
	g.cRejected.Inc()
	if g.log != nil {
		g.log.Warn("job rejected: memory pressure",
			slog.Uint64("heap", heap), slog.Uint64("limit", g.limit))
	}
	return &ErrMemoryPressure{Heap: heap, Limit: g.limit, RetryAfter: 5 * time.Second}
}

// isShedding reports whether the governor is currently between the shed
// and recovery thresholds — the degraded state the readiness probe exposes.
func (g *memGovernor) isShedding() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.shedding
}
