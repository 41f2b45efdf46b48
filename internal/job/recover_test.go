package job

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"lacret/internal/obs"
	"lacret/internal/plan"
)

// doneRun completes instantly with an empty (but reportable) result.
func doneRun(ctx context.Context, req *PlanRequest, trace func(plan.StageEvent)) (*RunResult, error) {
	return &RunResult{Circuit: req.Source.Label()}, nil
}

func waitJob(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s stuck in %s", j.ID(), j.State())
	}
}

// TestManagerRecoversPendingAndResumes is the crash contract end to end at
// the manager level: jobs acknowledged before a "crash" (an abandoned
// manager, its store left as the crash would leave it) are re-enqueued by
// the next Open under their original IDs, the job that had checkpointed
// resumes from its snapshot, and the ID sequence continues past the
// recovered jobs.
func TestManagerRecoversPendingAndResumes(t *testing.T) {
	dir := t.TempDir()

	// First incarnation: the running job saves a checkpoint, then parks
	// until the test ends (simulating a plan in flight when the process
	// dies). The second submission never leaves the queue. Cleanups run
	// last-in first-out, so this one frees the parked worker and waits for
	// m1 before the temporary directory is removed.
	release := make(chan struct{})
	var m1 *Manager
	var err error
	t.Cleanup(func() {
		close(release)
		if m1 != nil {
			m1.Shutdown(context.Background())
		}
	})
	checkpointed := make(chan string, 1)
	run1 := func(ctx context.Context, req *PlanRequest, trace func(plan.StageEvent)) (*RunResult, error) {
		if h := checkpointFrom(ctx); h != nil {
			h.save("route", []byte("ckpt-"+req.Source.Circuit))
		}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, context.Canceled
	}
	m1, err = Open(Options{
		DataDir: dir, Workers: 1, Run: run1,
		CheckpointNotify: func(id, stage string) {
			select {
			case checkpointed <- id + "/" + stage:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := m1.Submit(testReq("s400"))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m1.Submit(testReq("s953"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-checkpointed:
		if got != j1.ID()+"/route" {
			t.Fatalf("checkpoint notify %q, want %s/route", got, j1.ID())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("no checkpoint saved")
	}
	// No Shutdown: the "crash". m1's worker stays parked on run1.

	var mu sync.Mutex
	resumes := map[string]string{}
	run2 := func(ctx context.Context, req *PlanRequest, trace func(plan.StageEvent)) (*RunResult, error) {
		mu.Lock()
		if h := checkpointFrom(ctx); h != nil {
			resumes[req.Source.Circuit] = string(h.resume)
		}
		mu.Unlock()
		return &RunResult{Circuit: req.Source.Label()}, nil
	}
	m2, err := Open(Options{DataDir: dir, Workers: 2, Run: run2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Shutdown(context.Background())
	if got := m2.Stats().Recovered; got != 2 {
		t.Fatalf("Recovered = %d, want 2", got)
	}
	r1, ok := m2.Get(j1.ID())
	if !ok {
		t.Fatalf("recovered manager lost job %s", j1.ID())
	}
	r2, ok := m2.Get(j2.ID())
	if !ok {
		t.Fatalf("recovered manager lost job %s", j2.ID())
	}
	waitJob(t, r1)
	waitJob(t, r2)
	if r1.State() != StateDone || r2.State() != StateDone {
		t.Fatalf("recovered jobs ended %s/%s, want done/done", r1.State(), r2.State())
	}
	mu.Lock()
	if resumes["s400"] != "ckpt-s400" {
		t.Errorf("s400 resumed with %q, want its checkpoint", resumes["s400"])
	}
	if resumes["s953"] != "" {
		t.Errorf("s953 resumed with %q, want none (it never started)", resumes["s953"])
	}
	mu.Unlock()

	// The ID sequence continues: a fresh submission must not collide with
	// the recovered IDs.
	j3, err := m2.Submit(testReq("s1269"))
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID() == j1.ID() || j3.ID() == j2.ID() || idSeq(j3.ID()) <= idSeq(j2.ID()) {
		t.Fatalf("post-recovery ID %s does not continue past %s", j3.ID(), j2.ID())
	}
	waitJob(t, j3)
}

// TestManagerCacheSurvivesRestart: a cleanly stopped daemon's outcomes are
// served as cache hits — byte-for-byte — by the next incarnation.
func TestManagerCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	m1, err := Open(Options{DataDir: dir, Workers: 1, Run: spanRun})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := m1.Submit(testReq("s400"))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j1)
	if j1.State() != StateDone {
		t.Fatalf("job ended %s: %s", j1.State(), j1.Status().Err)
	}
	want := j1.Outcome().Report
	wantTrace := spanShape(j1.Outcome().Trace)
	if wantTrace != "pass(partition(round,round),route)" {
		t.Fatalf("first run traced %q", wantTrace)
	}
	if err := m1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(Options{DataDir: dir, Workers: 1,
		Run: func(ctx context.Context, req *PlanRequest, trace func(plan.StageEvent)) (*RunResult, error) {
			t.Error("cache miss after restart: run invoked")
			return doneRun(ctx, req, trace)
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Shutdown(context.Background())
	j2, err := m2.Submit(testReq("s400"))
	if err != nil {
		t.Fatal(err)
	}
	st := j2.Status()
	if !st.CacheHit || st.State != StateDone {
		t.Fatalf("restart submission: cacheHit=%v state=%s, want hit/done", st.CacheHit, st.State)
	}
	if string(j2.Outcome().Report) != string(want) {
		t.Fatal("restarted cache served different report bytes")
	}
	// The trace endpoint serves only the persisted span forest, so the
	// cache hit must carry the first run's tree, not a reconstruction.
	if got := spanShape(j2.Outcome().Trace); got != wantTrace {
		t.Fatalf("restarted cache served trace %q, want %q", got, wantTrace)
	}
}

// spanRun completes instantly after opening a small span tree under the
// job's recorder, the shape a planning pass leaves behind.
func spanRun(ctx context.Context, req *PlanRequest, trace func(plan.StageEvent)) (*RunResult, error) {
	pctx, pass := obs.StartSpan(ctx, "pass")
	sctx, part := obs.StartSpan(pctx, "partition")
	for i := 0; i < 2; i++ {
		_, r := obs.StartSpan(sctx, "round")
		r.SetAttr("i", float64(i))
		r.End()
	}
	part.End()
	_, rt := obs.StartSpan(pctx, "route")
	rt.End()
	pass.End()
	return doneRun(ctx, req, trace)
}

// spanShape renders a span forest's names and nesting, e.g. "a(b,c)".
func spanShape(spans []*obs.Span) string {
	parts := make([]string, len(spans))
	for i, sp := range spans {
		parts[i] = sp.Name
		if len(sp.Children) > 0 {
			parts[i] += "(" + spanShape(sp.Children) + ")"
		}
	}
	return strings.Join(parts, ",")
}

// TestDrainCancelsQueuedJobPersistently: a queued job canceled by an
// expired drain reaches canceled in memory AND in the journal — the next
// incarnation must not resurrect it.
func TestDrainCancelsQueuedJobPersistently(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	park := func(ctx context.Context, req *PlanRequest, trace func(plan.StageEvent)) (*RunResult, error) {
		select {
		case <-release:
			return &RunResult{Circuit: req.Source.Label()}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	m1, err := Open(Options{DataDir: dir, Workers: 1, Run: park})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Submit(testReq("s400")); err != nil {
		t.Fatal(err)
	}
	jq, err := m1.Submit(testReq("s953"))
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	m1.Shutdown(expired)
	if jq.State() != StateCanceled {
		t.Fatalf("queued job ended %s, want canceled", jq.State())
	}

	m2, err := Open(Options{DataDir: dir, Workers: 1, Run: doneRun})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Shutdown(context.Background())
	if got := m2.Stats().Recovered; got != 0 {
		t.Fatalf("recovered %d jobs after a full drain, want 0", got)
	}
	if _, ok := m2.Get(jq.ID()); ok {
		t.Fatalf("drain-canceled job %s resurrected", jq.ID())
	}
}

// TestWorkerSkipsQueueCanceledJobExactlyOnce pins the dequeue/cancel race
// accounting: a job canceled while queued is finalized by the cancel, the
// worker that later dequeues it skips it, and it is counted canceled
// exactly once in both the state stats and the metrics.
func TestWorkerSkipsQueueCanceledJobExactlyOnce(t *testing.T) {
	release := make(chan struct{})
	park := func(ctx context.Context, req *PlanRequest, trace func(plan.StageEvent)) (*RunResult, error) {
		select {
		case <-release:
			return &RunResult{Circuit: req.Source.Label()}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	m := NewManager(Options{Workers: 1, Run: park})
	defer m.Shutdown(context.Background())
	ja, err := m.Submit(testReq("s400"))
	if err != nil {
		t.Fatal(err)
	}
	jb, err := m.Submit(testReq("s953"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(jb.ID()); err != nil {
		t.Fatal(err)
	}
	if jb.State() != StateCanceled {
		t.Fatalf("canceled queued job is %s", jb.State())
	}
	close(release)
	waitJob(t, ja)
	// Give the worker its dequeue-and-skip of jb.
	deadline := time.Now().Add(10 * time.Second)
	for m.cCanceled.Value() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s := m.Stats()
	if s.Canceled != 1 || s.Done != 1 || s.Queued != 0 || s.Running != 0 {
		t.Fatalf("stats = canceled %d done %d queued %d running %d, want 1/1/0/0",
			s.Canceled, s.Done, s.Queued, s.Running)
	}
	if got := m.cCanceled.Value(); got != 1 {
		t.Fatalf("job.canceled metric = %d, want exactly 1", got)
	}
	if !strings.Contains(jb.Status().Err, "canceled before start") {
		t.Fatalf("queued-cancel err = %q", jb.Status().Err)
	}
}
