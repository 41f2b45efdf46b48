package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"lacret/internal/job"
	"lacret/internal/obs"
	"lacret/internal/plan"
	"lacret/internal/service"
)

// TestMetricsEndpoint drives a real job through the API and scrapes
// /metrics: the job-layer counters, the middleware's per-route latency
// histogram and status-class counters, and the pool histograms must all
// appear in valid exposition format.
func TestMetricsEndpoint(t *testing.T) {
	mgr := job.NewManager(job.Options{Workers: 1})
	defer mgr.Shutdown(context.Background())
	ts := httptest.NewServer(service.New(mgr))
	defer ts.Close()

	_, jr := postJob(t, ts.URL, `{"source":{"circuit":"s386"},"config":{"seed":1}}`)
	pollDone(t, ts.URL, jr.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("metrics content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE job_submitted counter",
		"job_submitted 1",
		"# TYPE http_latency_ms_submit histogram",
		`http_latency_ms_submit_bucket{le="+Inf"} 1`,
		"http_requests_submit_2xx 1",
		"# TYPE job_queue_wait_ms histogram",
		"job_run_ms_count 1",
		"# TYPE http_in_flight gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The scrape refreshes the process vitals itself: with no memory limit
	// the governor, the only other writer, is off.
	for _, name := range []string{"job_heap_bytes", "job_goroutines"} {
		if v := promValue(t, text, name); v <= 0 {
			t.Errorf("%s = %g, want > 0", name, v)
		}
	}
	// The scrape itself runs through the middleware: a second scrape must
	// see the first one's counter.
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !strings.Contains(string(body2), "http_requests_metrics_2xx 1") {
		t.Error("second scrape does not count the first")
	}
}

// promValue returns the value of the unlabeled series name in a
// Prometheus exposition.
func promValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("series %s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("exposition has no series %s", name)
	return 0
}

// TestHealthProbes: healthz is always 200; readyz flips to 503 once the
// manager drains.
func TestHealthProbes(t *testing.T) {
	mgr := job.NewManager(job.Options{Workers: 1})
	ts := httptest.NewServer(service.New(mgr))
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz %d %q", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("readyz %d %q", code, body)
	}

	if err := mgr.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("drained readyz %d %q, want 503 draining", code, body)
	}
	// Liveness is not readiness: the process still answers.
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("drained healthz %d, want 200", code)
	}
}

// TestTraceEndpoint fetches a finished job's span forest in both formats
// and checks the conflict and bad-format edges.
func TestTraceEndpoint(t *testing.T) {
	mgr := job.NewManager(job.Options{Workers: 1})
	defer mgr.Shutdown(context.Background())
	ts := httptest.NewServer(service.New(mgr))
	defer ts.Close()

	_, jr := postJob(t, ts.URL, `{"source":{"circuit":"s386"},"config":{"seed":1}}`)
	pollDone(t, ts.URL, jr.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + jr.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		ID      string              `json:"id"`
		State   job.State           `json:"state"`
		Circuit string              `json:"circuit"`
		Spans   []*obs.Span         `json:"spans"`
		Metrics obs.MetricsSnapshot `json:"metrics"`
	}
	err = json.NewDecoder(resp.Body).Decode(&tr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	if tr.ID != jr.ID || tr.State != job.StateDone || tr.Circuit != "s386" {
		t.Fatalf("trace identity %+v", tr)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("trace has no spans")
	}
	var stages int
	for _, root := range tr.Spans {
		stages += len(root.Children)
	}
	if stages == 0 {
		t.Fatalf("trace roots carry no stage spans: %+v", tr.Spans)
	}
	if len(tr.Metrics.Counters) == 0 {
		t.Fatal("trace carries no metrics snapshot")
	}

	// Chrome trace-event format: must decode as the chrome://tracing shape.
	cresp, err := http.Get(ts.URL + "/v1/jobs/" + jr.ID + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	err = json.NewDecoder(cresp.Body).Decode(&chrome)
	cresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(chrome.TraceEvents) == 0 || chrome.DisplayTimeUnit != "ms" {
		t.Fatalf("chrome trace %d events, unit %q", len(chrome.TraceEvents), chrome.DisplayTimeUnit)
	}

	// Unknown format is a 400.
	bresp, err := http.Get(ts.URL + "/v1/jobs/" + jr.ID + "/trace?format=pprof")
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad format status %d, want 400", bresp.StatusCode)
	}
}

// TestTraceBeforeTerminal: a running job has no trace yet — 409, like the
// report endpoint.
func TestTraceBeforeTerminal(t *testing.T) {
	release := make(chan struct{})
	mgr := job.NewManager(job.Options{Workers: 1,
		Run: func(ctx context.Context, r *job.PlanRequest, trace func(plan.StageEvent)) (*job.RunResult, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return &job.RunResult{Circuit: r.Source.Label()}, nil
		}})
	defer mgr.Shutdown(context.Background())
	defer close(release)
	ts := httptest.NewServer(service.New(mgr))
	defer ts.Close()

	_, jr := postJob(t, ts.URL, `{"source":{"circuit":"s386"},"config":{"seed":1}}`)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + jr.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("early trace status %d, want 409", resp.StatusCode)
	}
}

// TestSSEKeepalive subscribes to a job that is stalled inside its run
// function and expects ": ping" comments to flow while no events do.
func TestSSEKeepalive(t *testing.T) {
	release := make(chan struct{})
	mgr := job.NewManager(job.Options{Workers: 1,
		Run: func(ctx context.Context, r *job.PlanRequest, trace func(plan.StageEvent)) (*job.RunResult, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return &job.RunResult{Circuit: r.Source.Label()}, nil
		}})
	defer mgr.Shutdown(context.Background())
	defer close(release)
	ts := httptest.NewServer(service.New(mgr, service.WithSSEKeepalive(20*time.Millisecond)))
	defer ts.Close()

	_, jr := postJob(t, ts.URL, `{"source":{"circuit":"s386"},"config":{"seed":1}}`)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + jr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	lines := make(chan string)
	go func() {
		defer close(lines)
		scanner := bufio.NewScanner(resp.Body)
		for scanner.Scan() {
			lines <- scanner.Text()
		}
	}()
	deadline := time.After(10 * time.Second)
	pings := 0
	for pings < 3 {
		select {
		case line, open := <-lines:
			if !open {
				t.Fatal("stream closed before any pings")
			}
			if line == ": ping" {
				pings++
			}
		case <-deadline:
			t.Fatalf("saw %d pings in 10s, want 3", pings)
		}
	}
}

// TestRequestLogging installs a JSON slog logger and checks the
// middleware writes one line per request with the route and job attrs.
func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	mgr := job.NewManager(job.Options{Workers: 1, Logger: logger})
	defer mgr.Shutdown(context.Background())
	ts := httptest.NewServer(service.New(mgr, service.WithLogger(logger)))
	defer ts.Close()

	_, jr := postJob(t, ts.URL, `{"source":{"circuit":"s386"},"config":{"seed":1}}`)
	pollDone(t, ts.URL, jr.ID)
	// Stop both log writers before reading the buffer: the middleware
	// writes a request's line after the client has its response, and the
	// worker writes the job's last line after the job turns done.
	ts.Close()
	mgr.Shutdown(context.Background())

	var sawSubmit, sawGet, sawAccepted bool
	for _, raw := range strings.Split(buf.String(), "\n") {
		if raw == "" {
			continue
		}
		var line map[string]any
		if err := json.Unmarshal([]byte(raw), &line); err != nil {
			t.Fatalf("non-JSON log line %q: %v", raw, err)
		}
		switch line["msg"] {
		case "http request":
			switch line["route"] {
			case "submit":
				sawSubmit = true
				if line["status"] != float64(http.StatusAccepted) {
					t.Fatalf("submit logged status %v", line["status"])
				}
			case "get":
				sawGet = true
				if line["job"] != jr.ID {
					t.Fatalf("get logged job %v, want %s", line["job"], jr.ID)
				}
			}
		case "job accepted":
			sawAccepted = true
			if line["digest"] != jr.Digest {
				t.Fatalf("accept logged digest %v, want %s", line["digest"], jr.Digest)
			}
		}
	}
	if !sawSubmit || !sawGet || !sawAccepted {
		t.Fatalf("missing log lines: submit=%v get=%v accepted=%v in:\n%s",
			sawSubmit, sawGet, sawAccepted, buf.String())
	}
}
