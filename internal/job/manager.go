package job

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lacret/internal/obs"
	"lacret/internal/plan"
)

// ErrShutdown is returned by Submit once Shutdown has begun.
var ErrShutdown = errors.New("job: manager is shutting down")

// ErrNotFound is returned when a job ID is unknown.
var ErrNotFound = errors.New("job: no such job")

// ErrQueueFull is the backpressure signal: the queue had no room for the
// request. RetryAfter is the suggested resubmission delay (the service
// layer maps it to a Retry-After header on a 429).
type ErrQueueFull struct {
	RetryAfter time.Duration
}

func (e *ErrQueueFull) Error() string {
	return fmt.Sprintf("job: queue full, retry after %s", e.RetryAfter)
}

// RunFunc executes one planning request. The default is DefaultRun; tests
// substitute their own to control timing and failure modes. trace receives
// every pipeline stage event as it completes (never nil).
type RunFunc func(ctx context.Context, req *PlanRequest, trace func(plan.StageEvent)) (*RunResult, error)

// RunResult is what a run hands back for reporting: the circuit label and
// the planning iterations (per-pass errors included — a canceled pass
// still carries its best-so-far partial result).
type RunResult struct {
	Circuit string
	Iters   []plan.Iteration
}

// DefaultRun plans the request with the real pipeline. When the manager
// runs with a durable store, the context carries the job's checkpoint
// handle: stage snapshots flow out to disk, and a snapshot left behind by
// a crashed incarnation flows back in as the resume point.
func DefaultRun(ctx context.Context, req *PlanRequest, trace func(plan.StageEvent)) (*RunResult, error) {
	nl, err := req.Source.Netlist()
	if err != nil {
		return nil, err
	}
	cfg := req.PlanConfig()
	cfg.Trace = trace
	if h := checkpointFrom(ctx); h != nil {
		cfg.Checkpoint = h.save
		cfg.Resume = h.resume
	}
	iters, err := plan.PlanIterationsContext(ctx, nl, cfg, req.Config.Iterations)
	if err != nil {
		return nil, err
	}
	return &RunResult{Circuit: nl.Name, Iters: iters}, nil
}

// Options configures a Manager. The zero value selects GOMAXPROCS
// workers, a queue of twice that, a 64-entry cache, and the real planning
// pipeline.
type Options struct {
	// Workers is the worker-pool size (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the submissions waiting for a worker; a full
	// queue rejects with ErrQueueFull (0 = 2×Workers).
	QueueDepth int
	// CacheEntries bounds the content-addressed result cache; at most
	// this many outcomes are retained, LRU-evicted (0 = 64, negative
	// disables caching).
	CacheEntries int
	// RetainJobs bounds the terminal jobs kept for polling; the oldest
	// are forgotten past it (0 = 4096).
	RetainJobs int
	// Registry receives the manager's metrics (job.submitted,
	// job.cache_hits, job.running, ...). nil creates a private one.
	Registry *obs.Registry
	// Logger receives the manager's structured log stream: submissions,
	// dequeues, terminal transitions, cache hits, rejections, shed events,
	// and the WAL replay summary at Open, every line carrying the job ID
	// and request digest. nil disables logging entirely — the same
	// nil-is-disabled discipline as the obs package, so the silent path
	// allocates nothing.
	Logger *slog.Logger
	// Run is the planning implementation (nil = DefaultRun).
	Run RunFunc

	// DataDir, when set, makes the manager durable: accepted requests are
	// journaled (fsync before the submission is acknowledged), terminal
	// reports are persisted content-addressed, and running jobs snapshot
	// their pipeline state at stage boundaries. Open replays the directory
	// on start: unfinished jobs are re-enqueued under their original IDs
	// (resuming from their last checkpoint) and the report cache is
	// rebuilt. Empty keeps the manager fully in-memory.
	DataDir string
	// FS overrides the store's filesystem (fault injection); nil = OSFS.
	FS FS
	// CheckpointNotify, when set, is called after each stage checkpoint of
	// any job has been durably saved — the crash-harness hook (a chaos
	// test kills the process here and asserts the restart resumes).
	CheckpointNotify func(jobID, stage string)

	// MaxMemBytes is the admission-control memory limit. 0 falls back to
	// the runtime's GOMEMLIMIT when one is set; with neither, admission
	// control is disabled. Above MemHighWater of the limit, submissions
	// first shed the process's discretionary caches and then, still
	// above, are rejected with *ErrMemoryPressure (HTTP 429).
	MaxMemBytes int64
	// MemHighWater is the admission threshold as a fraction of the limit
	// (0 = 0.85).
	MemHighWater float64
	// ReadHeap overrides the live-heap probe (tests inject pressure);
	// nil reads runtime.MemStats.HeapAlloc.
	ReadHeap func() uint64
}

// Manager owns the job layer: a bounded worker pool consuming a bounded
// queue of PlanRequests, a job table for poll/cancel, and the
// content-addressed outcome cache. All methods are safe for concurrent
// use.
type Manager struct {
	workers  int
	queueCap int
	retain   int
	run      RunFunc
	reg      *obs.Registry
	log      *slog.Logger // nil = logging disabled

	store      *Store // nil for an in-memory manager
	mem        *memGovernor
	ckptNotify func(jobID, stage string)
	recovered  int

	mu     sync.Mutex
	closed bool
	seq    int
	jobs   map[string]*Job
	order  []string // creation order, for retention and listing
	cache  *resultCache
	queue  chan *Job

	wg       sync.WaitGroup
	runningN atomic.Int64

	cSubmitted, cCacheHits, cCacheMiss, cRejected *obs.Counter
	cDone, cFailed, cCanceled                     *obs.Counter
	cResumed, cJournalErr                         *obs.Counter
	gRunning, gQueued, gCacheEntries              *obs.Gauge
	gHeap, gGoroutines                            *obs.Gauge
	hQueueWait, hRunDur                           *obs.Histogram
}

// NewManager starts an in-memory manager (no DataDir). It is the
// constructor for tests and embedded use; daemons wanting durability call
// Open. A DataDir in opts makes it panic on store errors — use Open to
// handle them.
func NewManager(opts Options) *Manager {
	m, err := Open(opts)
	if err != nil {
		panic(err)
	}
	return m
}

// Open starts the manager, replaying opts.DataDir when set: the journal's
// unfinished jobs are re-enqueued under their original IDs (each resuming
// from its last stage checkpoint), and the content-addressed report cache
// is rebuilt from the stored outcomes, so restarts keep both the queue and
// the cache. Without a DataDir it is NewManager with an error return.
func Open(opts Options) (*Manager, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 2 * opts.Workers
	}
	switch {
	case opts.CacheEntries == 0:
		opts.CacheEntries = 64
	case opts.CacheEntries < 0:
		opts.CacheEntries = 0
	}
	if opts.RetainJobs <= 0 {
		opts.RetainJobs = 4096
	}
	if opts.Run == nil {
		opts.Run = DefaultRun
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}

	// Durable store first: recovery decides the queue's initial contents
	// (and can demand a deeper channel than the configured cap).
	var store *Store
	var recovered *Recovered
	if opts.DataDir != "" {
		fsys := opts.FS
		if fsys == nil {
			fsys = OSFS()
		}
		var err error
		store, recovered, err = OpenStore(fsys, opts.DataDir)
		if err != nil {
			return nil, err
		}
	}
	queueLen := opts.QueueDepth
	if recovered != nil && len(recovered.Pending) > queueLen {
		// Recovered jobs were all acknowledged before the crash; they must
		// re-enter the queue regardless of the configured depth. The
		// advertised cap stays opts.QueueDepth, so new submissions see
		// backpressure until the backlog drains.
		queueLen = len(recovered.Pending)
	}

	m := &Manager{
		workers:    opts.Workers,
		queueCap:   opts.QueueDepth,
		retain:     opts.RetainJobs,
		run:        opts.Run,
		reg:        reg,
		log:        opts.Logger,
		store:      store,
		ckptNotify: opts.CheckpointNotify,
		jobs:       map[string]*Job{},
		cache:      newResultCache(opts.CacheEntries),
		queue:      make(chan *Job, queueLen),

		cSubmitted:  reg.Counter("job.submitted"),
		cCacheHits:  reg.Counter("job.cache_hits"),
		cCacheMiss:  reg.Counter("job.cache_misses"),
		cRejected:   reg.Counter("job.rejected"),
		cDone:       reg.Counter("job.done"),
		cFailed:     reg.Counter("job.failed"),
		cCanceled:   reg.Counter("job.canceled"),
		cResumed:    reg.Counter("job.resumed"),
		cJournalErr: reg.Counter("job.journal_errors"),

		gRunning:      reg.Gauge("job.running"),
		gQueued:       reg.Gauge("job.queued"),
		gCacheEntries: reg.Gauge("job.cache_entries"),
		gHeap:         reg.Gauge("job.heap_bytes"),
		gGoroutines:   reg.Gauge("job.goroutines"),

		hQueueWait: reg.Histogram("job.queue_wait_ms", obs.DurationBucketsMS),
		hRunDur:    reg.Histogram("job.run_ms", obs.DurationBucketsMS),
	}
	m.mem = newMemGovernor(resolveMemLimit(opts.MaxMemBytes), opts.MemHighWater,
		opts.ReadHeap, m.shedCachesLocked, reg, m.log)

	if m.log != nil && store != nil {
		// The replay/compaction summary: what the WAL yielded and what the
		// open-time compaction kept (the journal is rewritten pending-only).
		m.log.Info("journal replayed",
			slog.String("data_dir", opts.DataDir),
			slog.Int("pending", len(recovered.Pending)),
			slog.Int("stored_reports", len(recovered.Reports)))
	}
	if recovered != nil {
		// Rebuild the LRU cache oldest-first so recency order survives the
		// restart, then bound the on-disk mirror the same way.
		for _, r := range recovered.Reports {
			m.cache.put(r.Digest, r.Outcome)
		}
		m.gCacheEntries.Set(float64(m.cache.len()))
		store.PruneReports(opts.CacheEntries)
		// Re-enqueue the unfinished jobs under their original IDs; their
		// saved checkpoints become the pipeline's resume points.
		for _, p := range recovered.Pending {
			p := p
			j := newJob(p.ID, p.Digest, &p.Req)
			j.resume = p.Checkpoint
			j.persist = m.persistTerminal
			if seq := idSeq(p.ID); seq > m.seq {
				m.seq = seq
			}
			m.queue <- j
			m.registerLocked(j) // no contention yet: workers start below
		}
		m.recovered = len(recovered.Pending)
		m.gQueued.Set(float64(len(m.queue)))
	}

	for i := 0; i < m.workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// idSeq parses the sequence number out of a job ID ("j<seq>-<digest>"),
// 0 when the ID has another shape.
func idSeq(id string) int {
	if len(id) < 2 || id[0] != 'j' {
		return 0
	}
	n := 0
	for _, c := range id[1:] {
		if c == '-' {
			return n
		}
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return 0
}

// shedCachesLocked is the memory governor's pressure hook: drop the older
// half of the report cache. The cache is a pure optimization, so shedding
// never changes results, and it refills on its own once the pressure
// clears. Called with m.mu held (the governor only runs inside Submit).
func (m *Manager) shedCachesLocked() {
	m.cache.trim(m.cache.len() / 2)
	m.gCacheEntries.Set(float64(m.cache.len()))
}

// persistTerminal is the Job.persist hook: settle the job in the store.
// Persistence failures are counted and logged, not surfaced — the
// in-memory terminal state already happened, and a retrying client would
// only re-plan.
func (m *Manager) persistTerminal(j *Job, state State, errMsg string, out *Outcome) {
	if err := m.store.Terminal(j.id, j.digest, state, errMsg, out); err != nil {
		m.cJournalErr.Inc()
		if m.log != nil {
			m.log.Error("terminal record not persisted",
				slog.String("job", j.id), slog.String("digest", j.digest),
				slog.String("err", err.Error()))
		}
	}
}

// Ready reports whether the manager should be offered new work: false
// while draining and while the memory governor is shedding — the states
// where a submission would answer 503 or (likely) 429. The service layer's
// readiness probe serves this, so a load balancer stops routing before
// clients start eating rejections.
func (m *Manager) Ready() (bool, string) {
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return false, "draining"
	}
	if m.mem != nil && m.mem.isShedding() {
		return false, "memory pressure"
	}
	return true, ""
}

// Registry returns the manager's metrics registry (for the debug listener
// and the HTTP middleware).
func (m *Manager) Registry() *obs.Registry { return m.reg }

// Workers returns the worker-pool size.
func (m *Manager) Workers() int { return m.workers }

// QueueDepth returns the queue capacity.
func (m *Manager) QueueDepth() int { return m.queueCap }

// Submit normalizes, validates, and enqueues a request. A request whose
// digest is already in the outcome cache comes back as a job that is done
// on arrival, carrying the cached report byte-for-byte — no worker runs.
// A full queue rejects with *ErrQueueFull, memory pressure with
// *ErrMemoryPressure, a draining manager with ErrShutdown. On a durable
// manager the acceptance is journaled and synced before Submit returns:
// an acknowledged job survives a crash.
func (m *Manager) Submit(req PlanRequest) (*Job, error) {
	req.Normalize()
	if err := req.Validate(); err != nil {
		if m.log != nil {
			m.log.Debug("job rejected: invalid request", slog.String("err", err.Error()))
		}
		return nil, err
	}
	digest := req.Digest()
	m.cSubmitted.Inc()

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		if m.log != nil {
			m.log.Warn("job rejected: draining", slog.String("digest", digest))
		}
		return nil, ErrShutdown
	}
	if out, ok := m.cache.get(digest); ok {
		// Cache hits bypass admission control and the journal: no plan
		// runs, and the outcome is already persisted content-addressed.
		j := newCachedJob(m.nextIDLocked(digest), digest, &req, out)
		m.registerLocked(j)
		m.mu.Unlock()
		m.cCacheHits.Inc()
		m.cDone.Inc()
		if m.log != nil {
			m.log.Info("job cache hit",
				slog.String("job", j.id), slog.String("digest", digest))
		}
		return j, nil
	}
	if len(m.queue) >= m.queueCap {
		m.mu.Unlock()
		m.cRejected.Inc()
		if m.log != nil {
			m.log.Warn("job rejected: queue full",
				slog.String("digest", digest), slog.Int("queue_cap", m.queueCap))
		}
		return nil, &ErrQueueFull{RetryAfter: time.Second}
	}
	if m.mem != nil {
		if err := m.mem.admit(); err != nil {
			m.mu.Unlock()
			m.cRejected.Inc()
			return nil, err
		}
	}
	j := newJob(m.nextIDLocked(digest), digest, &req)
	if m.store != nil {
		// The write-ahead contract: fsync the acceptance before the
		// submission is acknowledged. A journal that cannot take the
		// record means the durability promise cannot be kept, so the
		// request is refused rather than accepted in memory only.
		if err := m.store.Accept(j.id, digest, &req); err != nil {
			m.mu.Unlock()
			m.cJournalErr.Inc()
			m.cRejected.Inc()
			if m.log != nil {
				m.log.Error("job rejected: journal append failed",
					slog.String("job", j.id), slog.String("digest", digest),
					slog.String("err", err.Error()))
			}
			return nil, err
		}
		j.persist = m.persistTerminal
	}
	// Cannot block: every sender holds m.mu and the length was checked
	// above (recovery enqueues before the workers start).
	m.queue <- j
	m.registerLocked(j)
	queued := len(m.queue)
	m.gQueued.Set(float64(queued))
	m.mu.Unlock()
	m.cCacheMiss.Inc()
	if m.log != nil {
		m.log.Info("job accepted",
			slog.String("job", j.id), slog.String("digest", digest),
			slog.Int("queued", queued))
	}
	return j, nil
}

// nextIDLocked mints a job ID: a process-unique sequence number plus a
// digest prefix for human correlation.
func (m *Manager) nextIDLocked(digest string) string {
	m.seq++
	return fmt.Sprintf("j%d-%s", m.seq, digest[:12])
}

// registerLocked adds the job to the table, forgetting the oldest terminal
// jobs past the retention bound so a long-lived daemon's table stays flat.
// Active jobs are never evicted; a table full of them is allowed to grow.
func (m *Manager) registerLocked(j *Job) {
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	for len(m.jobs) > m.retain {
		idx := -1
		for i, id := range m.order {
			if old, ok := m.jobs[id]; ok && old.State().Terminal() {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		delete(m.jobs, m.order[idx])
		m.order = append(m.order[:idx], m.order[idx+1:]...)
	}
}

// Get returns the job with the given ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel cancels the job with the given ID: a queued job finalizes
// immediately, a running one stops at its next checkpoint and commits its
// best-so-far result through the anytime path.
func (m *Manager) Cancel(id string) (*Job, error) {
	j, ok := m.Get(id)
	if !ok {
		return nil, ErrNotFound
	}
	j.requestCancel()
	return j, nil
}

// Jobs snapshots every tracked job's status in creation order.
func (m *Manager) Jobs() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Status, 0, len(m.jobs))
	for _, id := range m.order {
		if j, ok := m.jobs[id]; ok {
			out = append(out, j.Status())
		}
	}
	return out
}

// Stats is the pool/cache snapshot served by the stats endpoint.
type Stats struct {
	Workers      int   `json:"workers"`
	QueueCap     int   `json:"queue_cap"`
	Queued       int   `json:"queued"`
	Running      int   `json:"running"`
	Done         int   `json:"done"`
	Failed       int   `json:"failed"`
	Canceled     int   `json:"canceled"`
	CacheEntries int   `json:"cache_entries"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	Rejected     int64 `json:"rejected"`
	Draining     bool  `json:"draining,omitempty"`
	// Durable-manager fields: jobs re-enqueued from the journal at start,
	// runs that resumed from a stage checkpoint, journal/store write
	// failures, and submissions shed by the memory governor.
	Recovered     int                 `json:"recovered,omitempty"`
	Resumed       int64               `json:"resumed,omitempty"`
	JournalErrors int64               `json:"journal_errors,omitempty"`
	MemRejected   int64               `json:"mem_rejected,omitempty"`
	Metrics       obs.MetricsSnapshot `json:"metrics"`
}

// Stats snapshots the manager.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	s := Stats{
		Workers:      m.workers,
		QueueCap:     m.queueCap,
		CacheEntries: m.cache.len(),
		Draining:     m.closed,
	}
	var jobs []*Job
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		switch j.State() {
		case StateQueued:
			s.Queued++
		case StateRunning:
			s.Running++
		case StateDone:
			s.Done++
		case StateFailed:
			s.Failed++
		case StateCanceled:
			s.Canceled++
		}
	}
	s.CacheHits = m.cCacheHits.Value()
	s.CacheMisses = m.cCacheMiss.Value()
	s.Rejected = m.cRejected.Value()
	s.Recovered = m.recovered
	s.Resumed = m.cResumed.Value()
	s.JournalErrors = m.cJournalErr.Value()
	if m.mem != nil {
		s.MemRejected = m.mem.cRejected.Value()
	}
	s.Metrics = m.Metrics()
	return s
}

// Metrics refreshes the process vitals (job.heap_bytes, job.goroutines)
// and snapshots the registry, so every reader — Stats and the /metrics
// scrape — sees current values even with the memory governor disabled.
func (m *Manager) Metrics() obs.MetricsSnapshot {
	m.gHeap.Set(float64(liveHeap()))
	m.gGoroutines.Set(float64(runtime.NumGoroutine()))
	return m.reg.Snapshot()
}

// Shutdown drains the manager: no further submissions are accepted, and
// queued plus running jobs are given until ctx expires to finish. At the
// deadline every in-flight job's context is canceled, which makes the
// anytime stages commit their best-so-far results; Shutdown then waits for
// the workers to finalize those jobs and returns. The error is ctx's when
// the grace period fired, nil on a clean drain.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	already := m.closed
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	m.mu.Unlock()
	if !already && m.log != nil {
		m.log.Info("manager draining")
	}

	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		if m.store != nil {
			m.store.Close()
		}
		return nil
	case <-ctx.Done():
	}
	m.mu.Lock()
	var live []*Job
	for _, j := range m.jobs {
		if !j.State().Terminal() {
			live = append(live, j)
		}
	}
	m.mu.Unlock()
	// Outside m.mu: requestCancel on a queued job runs the persist hook
	// (journal fsync), and holding the manager lock through that would
	// stall every status poll of the drain.
	for _, j := range live {
		j.requestCancel()
	}
	<-drained
	if m.store != nil {
		m.store.Close()
	}
	return ctx.Err()
}

// worker consumes the queue until Shutdown closes it.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.gQueued.Set(float64(len(m.queue)))
		m.runJob(j)
	}
}

// runJob executes one job end to end. A panic escaping the run — the
// pipeline already contains stage panics into StageErrors, so this is the
// last line of defense — fails the job without killing the worker or the
// daemon.
func (m *Manager) runJob(j *Job) {
	if !j.toRunning() {
		// Canceled while queued; requestCancel already finalized it.
		m.cCanceled.Inc()
		return
	}
	queueWait := j.started.Sub(j.created)
	m.hQueueWait.Observe(float64(queueWait.Microseconds()) / 1000)
	if m.log != nil {
		m.log.Info("job running",
			slog.String("job", j.id), slog.String("digest", j.digest),
			slog.Duration("queue_wait", queueWait))
	}
	t0 := time.Now()
	defer func() {
		m.hRunDur.Observe(float64(time.Since(t0).Microseconds()) / 1000)
		if m.log != nil {
			st := j.State()
			lvl := slog.LevelInfo
			if st == StateFailed {
				lvl = slog.LevelWarn
			}
			m.log.Log(context.Background(), lvl, "job "+string(st),
				slog.String("job", j.id), slog.String("digest", j.digest),
				slog.Duration("run", time.Since(t0)),
				slog.String("err", j.Status().Err))
		}
	}()
	m.gRunning.Set(float64(m.runningN.Add(1)))
	defer func() { m.gRunning.Set(float64(m.runningN.Add(-1))) }()
	defer func() {
		if r := recover(); r != nil {
			j.finish(StateFailed, fmt.Sprintf("panic: %v", r), nil)
			m.cFailed.Inc()
		}
	}()

	// Each job records into its own recorder: the spans and metrics land
	// in that job's report, while the manager's registry keeps the
	// fleet-wide counters.
	rec := obs.NewRecorder()
	ctx := obs.NewContext(j.ctx, rec)
	if m.store != nil {
		id := j.id
		ctx = withCheckpoint(ctx, &ckptHandle{
			resume: j.resume,
			save: func(stage string, data []byte) {
				if err := m.store.SaveCheckpoint(id, data); err != nil {
					m.cJournalErr.Inc()
					if m.log != nil {
						m.log.Error("checkpoint not persisted",
							slog.String("job", id), slog.String("stage", stage),
							slog.String("err", err.Error()))
					}
					return
				}
				if m.ckptNotify != nil {
					m.ckptNotify(id, stage)
				}
			},
		})
	}
	pass := -1
	trace := func(ev plan.StageEvent) {
		if ev.Index == 0 {
			pass++
		}
		j.emitStage(pass, ev)
	}

	res, err := m.run(ctx, j.req, trace)
	if err != nil {
		state, c := StateFailed, m.cFailed
		if j.ctx.Err() != nil {
			state, c = StateCanceled, m.cCanceled
		}
		j.finish(state, err.Error(), nil)
		c.Inc()
		return
	}

	var iterErr error
	for _, it := range res.Iters {
		if it.Err != nil {
			iterErr = it.Err
		}
	}
	if len(res.Iters) > 0 && res.Iters[0].Result != nil && res.Iters[0].Result.Resumed != "" {
		m.cResumed.Inc()
	}
	rep := &obs.Report{
		Tool:    "lacretd",
		Circuit: res.Circuit,
		Config:  j.req.Config.Map(),
		Passes:  plan.PassReports(res.Iters),
		Metrics: rec.Registry().Snapshot(),
	}
	data, encErr := rep.Encode()
	if encErr != nil {
		j.finish(StateFailed, fmt.Sprintf("encode report: %v", encErr), nil)
		m.cFailed.Inc()
		return
	}
	// The span forest rides along with the report: the trace endpoint
	// serves it for any terminal job, and cache hits share it.
	out := &Outcome{Report: data, Summary: summarize(res), Trace: rec.Roots()}
	switch {
	case iterErr != nil && j.ctx.Err() != nil:
		// Canceled mid-plan: the anytime path committed best-so-far, and
		// the report of the completed prefix rides along.
		j.finish(StateCanceled, iterErr.Error(), out)
		m.cCanceled.Inc()
	case iterErr != nil:
		j.finish(StateFailed, iterErr.Error(), out)
		m.cFailed.Inc()
	default:
		m.mu.Lock()
		m.cache.put(j.digest, out)
		m.gCacheEntries.Set(float64(m.cache.len()))
		m.mu.Unlock()
		j.finish(StateDone, "", out)
		m.cDone.Inc()
	}
}

// summarize extracts the headline numbers from the final completed pass.
func summarize(res *RunResult) Summary {
	s := Summary{Circuit: res.Circuit, Passes: len(res.Iters)}
	var final *plan.Result
	for _, it := range res.Iters {
		if it.Result != nil && it.Err == nil {
			final = it.Result
		}
	}
	if final == nil {
		for _, it := range res.Iters {
			if it.Result != nil {
				final = it.Result
			}
		}
	}
	if final == nil {
		return s
	}
	if res.Iters[0].Result != nil {
		s.Resumed = res.Iters[0].Result.Resumed
	}
	s.TclkNS, s.TinitNS, s.TminNS = final.Tclk, final.Tinit, final.Tmin
	s.WirelengthUM = final.RouteWirelength
	s.Repeaters = final.RepeaterCount
	if final.MinArea != nil {
		s.MinAreaNFOA, s.MinAreaNF = final.MinArea.NFOA, final.MinArea.NF
	}
	if final.LAC != nil {
		s.LACNFOA, s.LACNF, s.LACNWR = final.LAC.NFOA, final.LAC.NF, final.LAC.NWR
	}
	for _, it := range res.Iters {
		if it.Result != nil {
			s.Truncated += len(it.Result.TruncatedStages())
		}
	}
	return s
}
