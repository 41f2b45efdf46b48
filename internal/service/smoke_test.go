package service_test

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"lacret/internal/job"
	"lacret/internal/obs"
)

// TestDaemonChaosSmoke is the crash-recovery smoke (LACRET_SMOKE=1): a
// real lacretd process is killed mid-plan — os.Exit right after a stage
// checkpoint lands, the moral equivalent of kill -9 — and a second
// incarnation on the same data directory must recover the journaled job
// under its original ID, resume from the checkpoint, and serve a report
// that validates with the consumer decoder. The restart is also required
// to preserve the result cache, and a memory-capped daemon must shed load
// with 429 instead of dying.
func TestDaemonChaosSmoke(t *testing.T) {
	if os.Getenv("LACRET_SMOKE") != "1" {
		t.Skip("set LACRET_SMOKE=1 to run the daemon chaos smoke")
	}
	bin := filepath.Join(t.TempDir(), "lacretd")
	if out, err := exec.Command("go", "build", "-o", bin, "lacret/cmd/lacretd").CombinedOutput(); err != nil {
		t.Fatalf("build lacretd: %v\n%s", err, out)
	}
	dataDir := t.TempDir()
	addr := freeAddr(t)
	base := "http://" + addr
	req := `{"source":{"circuit":"s400"}}`

	// Incarnation one: dies right after the third checkpoint save — the
	// "grid" stage boundary, mid-plan.
	d1 := startDaemon(t, bin, "-addr", addr, "-workers", "1",
		"-data-dir", dataDir, "-crash-after-checkpoint", "3")
	resp, jr := postJob(t, base, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit to first incarnation: status %d", resp.StatusCode)
	}
	if jr.State.Terminal() {
		t.Fatalf("job %s terminal (%s) before the crash", jr.ID, jr.State)
	}
	select {
	case err := <-d1.exited:
		var exitErr *exec.ExitError
		if !asExit(err, &exitErr) || exitErr.ExitCode() != 137 {
			t.Fatalf("first incarnation exited %v, want the injected code 137", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("first incarnation survived its crash point")
	}

	// Incarnation two: same data directory, same address, no crash.
	d2 := startDaemon(t, bin, "-addr", addr, "-workers", "1", "-data-dir", dataDir)
	fin := pollDone(t, base, jr.ID)
	if fin.State != job.StateDone {
		t.Fatalf("recovered job ended %s: %s", fin.State, fin.Err)
	}
	if fin.Summary == nil || fin.Summary.Resumed != "grid" {
		t.Fatalf("summary %+v, want resumed from the grid checkpoint", fin.Summary)
	}
	rep := httpBody(t, base+"/v1/jobs/"+jr.ID+"/report")
	if _, err := obs.DecodeReport([]byte(rep)); err != nil {
		t.Fatalf("recovered report fails the consumer decoder: %v", err)
	}
	var st job.Stats
	getJSON(t, base+"/v1/stats", &st)
	if st.Recovered < 1 || st.Resumed < 1 {
		t.Fatalf("stats recovered=%d resumed=%d, want both >= 1", st.Recovered, st.Resumed)
	}
	// The settled outcome is durable: a resubmission is a cache hit.
	if resp, hit := postJob(t, base, req); !hit.CacheHit {
		t.Fatalf("resubmission after recovery: status %d, not a cache hit", resp.StatusCode)
	}

	// The restarted daemon's /metrics carries the job counters and the
	// HTTP plane's latency histograms in Prometheus exposition format.
	text := httpBody(t, base+"/metrics")
	for _, want := range []string{"job_submitted", "http_latency_ms_submit_bucket", "job_run_ms_count"} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics after restart missing %q", want)
		}
	}
	if body := httpBody(t, base+"/readyz"); !strings.Contains(body, "ready") {
		t.Fatalf("readyz before drain: %q", body)
	}

	// Clean drain: an uncached job keeps the pool busy, SIGTERM starts the
	// drain, and readyz must answer 503 while HTTP stays up for the
	// in-flight job — then the process exits 0.
	resp, busy := postJob(t, base, `{"source":{"circuit":"s400"},"config":{"seed":7}}`)
	if resp.StatusCode != http.StatusAccepted || busy.CacheHit {
		t.Fatalf("drain filler: status %d cache hit %v, want an uncached 202", resp.StatusCode, busy.CacheHit)
	}
	d2.cmd.Process.Signal(syscall.SIGTERM)
	saw503 := false
	for !saw503 {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			break // listener gone: the drain finished before we sampled it
		}
		saw503 = resp.StatusCode == http.StatusServiceUnavailable
		resp.Body.Close()
	}
	if !saw503 {
		t.Fatal("readyz never answered 503 during the drain")
	}
	select {
	case err := <-d2.exited:
		if err != nil {
			t.Fatalf("drain exited with %v", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("second incarnation never drained")
	}

	// Restart three: the cache must survive a clean shutdown too.
	startDaemon(t, bin, "-addr", addr, "-workers", "1", "-data-dir", dataDir)
	if resp, hit := postJob(t, base, req); !hit.CacheHit {
		t.Fatalf("resubmission after restart: status %d, not a cache hit", resp.StatusCode)
	}

	// A memory-capped daemon sheds load instead of dying.
	addr2 := freeAddr(t)
	startDaemon(t, bin, "-addr", addr2, "-workers", "1", "-max-mem", "1")
	if resp, _ := postJob(t, "http://"+addr2, req); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit under -max-mem 1: status %d, want 429", resp.StatusCode)
	}
}

type daemon struct {
	cmd    *exec.Cmd
	exited chan error
}

// startDaemon launches the built lacretd and waits until its API answers
// (or the process dies, which some chaos scenarios want — the caller reads
// exited). The process is killed at test cleanup if still running.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	t.Cleanup(func() {
		cmd.Process.Kill()
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
		}
	})
	// Ready-wait: the daemon prints its banner after Listen, so the API is
	// up once /v1/stats answers.
	addr := ""
	for i, a := range args {
		if a == "-addr" {
			addr = args[i+1]
		}
	}
	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if resp, err := probe.Get("http://" + addr + "/v1/stats"); err == nil {
			resp.Body.Close()
			return d
		}
		select {
		case err := <-d.exited:
			d.exited <- err // re-arm for the caller
			return d
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon on %s never became ready", addr)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// httpBody GETs a URL and returns the body (any status).
func httpBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// freeAddr reserves an ephemeral port and releases it for the daemon.
func freeAddr(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	return fmt.Sprintf("127.0.0.1:%d", lis.Addr().(*net.TCPAddr).Port)
}

func asExit(err error, target **exec.ExitError) bool {
	e, ok := err.(*exec.ExitError)
	if ok {
		*target = e
	}
	return ok
}
