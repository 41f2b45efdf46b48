package job

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestMemoryPressureAdmission drives the governor with a fake heap probe:
// submissions above the high-water mark shed the report cache (the
// governor enters its shedding state) and are rejected with a retryable
// error; once the heap falls below the low-water mark the governor leaves
// that state and submissions flow again.
func TestMemoryPressureAdmission(t *testing.T) {
	var heap atomic.Uint64
	heap.Store(500)
	// Limit 1000 → high water 850, low water 595.
	m := NewManager(Options{
		Workers: 1, Run: doneRun,
		MaxMemBytes: 1000,
		ReadHeap:    func() uint64 { return heap.Load() },
	})
	defer m.Shutdown(context.Background())

	j1, err := m.Submit(testReq("s400"))
	if err != nil {
		t.Fatalf("submit below high water: %v", err)
	}
	waitJob(t, j1)
	if m.mem.isShedding() {
		t.Fatal("shedding before any pressure")
	}

	heap.Store(900)
	_, err = m.Submit(testReq("s953"))
	var mp *ErrMemoryPressure
	if !errors.As(err, &mp) {
		t.Fatalf("submit at heap 900/1000 = %v, want ErrMemoryPressure", err)
	}
	if mp.Heap != 900 || mp.Limit != 1000 || mp.RetryAfter <= 0 {
		t.Fatalf("pressure detail = %+v", mp)
	}
	if !m.mem.isShedding() {
		t.Fatal("not shedding under pressure")
	}
	if got := m.Stats().MemRejected; got != 1 {
		t.Fatalf("MemRejected = %d, want 1", got)
	}

	// Still above high water: rejected again, but the shed happens once.
	if _, err := m.Submit(testReq("s1269")); !errors.As(err, &mp) {
		t.Fatalf("second overloaded submit = %v, want ErrMemoryPressure", err)
	}
	if got := m.mem.cShed.Value(); got != 1 {
		t.Fatalf("job.mem_shed = %d after two rejections, want 1", got)
	}

	// Between low (595) and high (850): admitted, but still shedding.
	heap.Store(700)
	j2, err := m.Submit(testReq("s1269"))
	if err != nil {
		t.Fatalf("submit in hysteresis band: %v", err)
	}
	waitJob(t, j2)
	if !m.mem.isShedding() {
		t.Fatal("stopped shedding in hysteresis band")
	}

	// Below low water: recovered.
	heap.Store(500)
	j3, err := m.Submit(testReq("s5378"))
	if err != nil {
		t.Fatalf("submit after recovery: %v", err)
	}
	waitJob(t, j3)
	if m.mem.isShedding() {
		t.Fatal("still shedding after recovery")
	}
	if got := m.Stats().MemRejected; got != 2 {
		t.Fatalf("MemRejected = %d at end, want 2", got)
	}
}
