package obs

import (
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestDebugServerServesVars: the debug listener serves the registry's
// variables in the Prometheus text format on /metrics, and /debug/vars no
// longer mirrors them as expvar JSON.
func TestDebugServerServesVars(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test.counter").Inc()
	ds, err := StartDebugServer("localhost:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	resp, err := http.Get("http://" + ds.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if !strings.Contains(string(body), "test_counter 1") {
		t.Fatalf("metrics output missing counter: %s", body)
	}
	// The catch-all index answers /debug/vars, but no expvar JSON mirror
	// of the registry is served there any more.
	resp, err = http.Get("http://" + ds.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), "test.counter") || strings.Contains(string(body), "memstats") {
		t.Fatalf("/debug/vars still serves the expvar mirror: %s", body)
	}
}

// TestDebugServerCloseWaitsForServeGoroutine pins the shutdown fix: Close
// must not return until the serve goroutine has exited, so a caller that
// closed the server leaves no goroutine behind.
func TestDebugServerCloseWaitsForServeGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ds, err := StartDebugServer("localhost:0", NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-ds.done:
			t.Fatal("serve goroutine exited before Close")
		default:
		}
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-ds.done:
		default:
			t.Fatal("Close returned before the serve goroutine exited")
		}
	}
	// The goroutine count settles back: allow scheduler slack, but five
	// leaked serve goroutines would show.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
