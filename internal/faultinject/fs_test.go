package faultinject

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"lacret/internal/job"
)

func req(circuit string) job.PlanRequest {
	r := job.PlanRequest{Source: job.Source{Circuit: circuit}}
	r.Normalize()
	return r
}

// reportBytes is deliberately indented: the crash contract promises the
// stored report back byte-for-byte, whitespace included.
var reportBytes = []byte("{\n  \"tool\": \"lacretd\"\n}\n")

// scenarioAcks records which store operations were acknowledged (returned
// nil) before the injected fault stopped the scenario. Acknowledged is the
// durability promise: an acked operation must survive any later crash.
type scenarioAcks struct {
	a1, a2, ck, t1 bool
}

const (
	idJ1 = "j1-aaaaaaaaaaaa"
	idJ2 = "j2-bbbbbbbbbbbb"
)

// storeScenario is the fixed store workload the crash enumeration replays:
// open, accept two jobs, checkpoint the second, settle the first with a
// report, close. It stops at the first error, returning what was acked.
func storeScenario(fsys job.FS, dir string) (scenarioAcks, error) {
	var acks scenarioAcks
	s, _, err := job.OpenStore(fsys, dir)
	if err != nil {
		return acks, err
	}
	defer s.Close()
	r1, r2 := req("s400"), req("s953")
	if err := s.Accept(idJ1, r1.Digest(), &r1); err != nil {
		return acks, err
	}
	acks.a1 = true
	if err := s.Accept(idJ2, r2.Digest(), &r2); err != nil {
		return acks, err
	}
	acks.a2 = true
	if err := s.SaveCheckpoint(idJ2, []byte("ckpt-bytes")); err != nil {
		return acks, err
	}
	acks.ck = true
	out := &job.Outcome{Report: reportBytes, Summary: job.Summary{Circuit: "s400"}}
	if err := s.Terminal(idJ1, r1.Digest(), job.StateDone, "", out); err != nil {
		return acks, err
	}
	acks.t1 = true
	return acks, nil
}

// verifyInvariants reopens the crashed directory with a clean filesystem
// and checks the durability contract: acked operations survived, nothing
// recovered is corrupt, and nothing phantom appeared.
func verifyInvariants(t *testing.T, dir string, acks scenarioAcks) {
	t.Helper()
	s, rec, err := job.OpenStore(job.OSFS(), dir)
	if err != nil {
		t.Fatalf("reopen after injected crash: %v", err)
	}
	defer s.Close()
	r1, r2 := req("s400"), req("s953")
	pend := map[string]job.PendingJob{}
	for _, p := range rec.Pending {
		switch p.ID {
		case idJ1:
			if p.Digest != r1.Digest() || p.Req.Source.Circuit != "s400" {
				t.Fatalf("recovered %s corrupt: %+v", idJ1, p)
			}
		case idJ2:
			if p.Digest != r2.Digest() || p.Req.Source.Circuit != "s953" {
				t.Fatalf("recovered %s corrupt: %+v", idJ2, p)
			}
		default:
			t.Fatalf("phantom pending job %+v", p)
		}
		pend[p.ID] = p
	}
	if acks.t1 {
		if _, ok := pend[idJ1]; ok {
			t.Fatalf("job %s resurrected after acked terminal", idJ1)
		}
		found := false
		for _, r := range rec.Reports {
			if r.Digest == r1.Digest() {
				found = true
				if !bytes.Equal(r.Outcome.Report, reportBytes) {
					t.Fatalf("acked report came back altered: %q", r.Outcome.Report)
				}
			}
		}
		if !found {
			t.Fatal("acked report lost in crash")
		}
	} else if acks.a1 {
		if _, ok := pend[idJ1]; !ok {
			// An unacked terminal may still have reached the disk (its
			// record written, the fsync after it failed — the classic
			// ambiguity). The job may settle early, never vanish: its
			// report must then be present and intact.
			settled := false
			for _, r := range rec.Reports {
				if r.Digest == r1.Digest() && bytes.Equal(r.Outcome.Report, reportBytes) {
					settled = true
				}
			}
			if !settled {
				t.Fatalf("acked accept of %s lost in crash", idJ1)
			}
		}
	}
	if acks.a2 {
		p, ok := pend[idJ2]
		if !ok {
			t.Fatalf("acked accept of %s lost in crash", idJ2)
		}
		if acks.ck && string(p.Checkpoint) != "ckpt-bytes" {
			t.Fatalf("acked checkpoint of %s came back %q", idJ2, p.Checkpoint)
		}
	}
}

// TestStoreCrashAtEveryIO enumerates every write and every fsync of the
// store workload and crashes there three ways — failed write, torn (short)
// write, failed fsync — then reopens with a healthy filesystem and checks
// the durability invariants. This is the exhaustive "kill -9 at the Nth
// I/O" test, deterministic instead of timer-raced.
func TestStoreCrashAtEveryIO(t *testing.T) {
	probe := NewFS(job.OSFS())
	acks, err := storeScenario(probe, t.TempDir())
	if err != nil || !acks.t1 {
		t.Fatalf("fault-free scenario: acks=%+v err=%v", acks, err)
	}
	writes, syncs := probe.Writes(), probe.Syncs()
	if writes == 0 || syncs == 0 {
		t.Fatalf("scenario exercised %d writes, %d syncs — nothing to enumerate", writes, syncs)
	}

	cases := []struct {
		mode string
		n    int
		arm  func(f *FS, i int)
	}{
		{"fail-write", writes, (*FS).FailWriteAt},
		{"torn-write", writes, (*FS).ShortWriteAt},
		{"fail-sync", syncs, (*FS).FailSyncAt},
	}
	for _, c := range cases {
		for i := 1; i <= c.n; i++ {
			t.Run(fmt.Sprintf("%s-%d", c.mode, i), func(t *testing.T) {
				fsys := NewFS(job.OSFS())
				c.arm(fsys, i)
				dir := t.TempDir()
				acks, err := storeScenario(fsys, dir)
				if err == nil {
					t.Fatalf("fault at %s %d went unnoticed", c.mode, i)
				}
				verifyInvariants(t, dir, acks)
			})
		}
	}
}

// TestJournalBrokenLatch: once an append tears, the journal must refuse
// every later append — a record written beyond a torn frame would be
// unreachable at replay, an acked-but-lost acceptance.
func TestJournalBrokenLatch(t *testing.T) {
	fsys := NewFS(job.OSFS())
	dir := t.TempDir()
	s, _, err := job.OpenStore(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r1, r2, r3 := req("s400"), req("s953"), req("s1269")
	if err := s.Accept(idJ1, r1.Digest(), &r1); err != nil {
		t.Fatal(err)
	}
	fsys.ShortWriteAt(fsys.Writes() + 1)
	if err := s.Accept(idJ2, r2.Digest(), &r2); err == nil {
		t.Fatal("torn append went unnoticed")
	}
	// The fault is spent; only the latch can reject this one.
	if err := s.Accept("j3-cccccccccccc", r3.Digest(), &r3); err == nil {
		t.Fatal("append after a torn frame accepted — record would be unreachable")
	}
	s.Close()

	_, rec, err := job.OpenStore(job.OSFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Pending) != 1 || rec.Pending[0].ID != idJ1 {
		t.Fatalf("recovered %+v, want exactly the pre-tear accept", rec.Pending)
	}
}

// TestCrashAfterEveryCheckpoint freezes a real daemon at each of the six
// stage-boundary checkpoint saves of an s400 plan — the worker parks
// inside the save notification, exactly the state a SIGKILL there leaves
// on disk — then opens a second manager on the same data directory and
// requires the recovered job to resume from that boundary and land on the
// same answer as an uninterrupted run.
func TestCrashAfterEveryCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("full s400 plans per checkpoint boundary")
	}
	r := req("s400")

	// Baseline: one uninterrupted run.
	mb := job.NewManager(job.Options{Workers: 1})
	jb, err := mb.Submit(r)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, jb)
	if jb.State() != job.StateDone {
		t.Fatalf("baseline ended %s: %s", jb.State(), jb.Status().Err)
	}
	base := jb.Outcome().Summary
	mb.Shutdown(context.Background())

	// Must match the pipeline's checkpoint boundary order.
	boundaries := []string{"partition", "floorplan", "grid", "route", "repeaters", "periods"}
	for k := 1; k <= len(boundaries); k++ {
		boundary := boundaries[k-1]
		t.Run(boundary, func(t *testing.T) {
			dir := t.TempDir()
			park := make(chan struct{})
			var saves atomic.Int64
			var frozen atomic.Bool
			m1, err := job.Open(job.Options{
				DataDir: dir, Workers: 1,
				CheckpointNotify: func(id, stage string) {
					if int(saves.Add(1)) == k {
						frozen.Store(true)
						<-park // the "crash": this incarnation never makes progress again
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				// Release the crashed incarnation and wait for it to finish
				// before TempDir's cleanup removes dir: resumed, it goes on
				// writing checkpoints into the directory being removed.
				close(park)
				m1.Shutdown(context.Background())
			})
			j1, err := m1.Submit(r)
			if err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(120 * time.Second)
			for !frozen.Load() {
				if time.Now().After(deadline) {
					t.Fatalf("never reached checkpoint %d (%s)", k, boundary)
				}
				time.Sleep(5 * time.Millisecond)
			}
			// No Shutdown: m1 is the crashed incarnation.

			m2, err := job.Open(job.Options{DataDir: dir, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Shutdown(context.Background())
			j2, ok := m2.Get(j1.ID())
			if !ok {
				t.Fatalf("restart lost job %s", j1.ID())
			}
			waitDone(t, j2)
			if j2.State() != job.StateDone {
				t.Fatalf("recovered job ended %s: %s", j2.State(), j2.Status().Err)
			}
			sum := j2.Outcome().Summary
			if sum.Resumed != boundary {
				t.Errorf("resumed from %q, want %q", sum.Resumed, boundary)
			}
			got, want := sum, base
			got.Resumed, want.Resumed = "", ""
			if got != want {
				t.Errorf("resumed summary diverged:\n got %+v\nwant %+v", got, want)
			}
			if n := m2.Stats().Resumed; n != 1 {
				t.Errorf("job.resumed metric = %d, want 1", n)
			}
		})
	}
}

func waitDone(t *testing.T, j *job.Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("job %s stuck in %s", j.ID(), j.State())
	}
}
