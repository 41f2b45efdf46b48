package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lacret/internal/job"
	"lacret/internal/obs"
	"lacret/internal/plan"
	"lacret/internal/service"
)

// jobResponse mirrors the service's job envelope for decoding in tests.
type jobResponse struct {
	job.Status
	Report json.RawMessage `json:"report"`
}

// postJob submits a request body to the daemon at base and decodes the
// answer (an error envelope decodes to an empty job).
func postJob(t *testing.T, base, body string) (*http.Response, jobResponse) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, jr
}

// pollDone polls job id on the daemon at base until it is terminal.
func pollDone(t *testing.T, base, id string) jobResponse {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var jr jobResponse
		getJSON(t, base+"/v1/jobs/"+id, &jr)
		if jr.State.Terminal() {
			return jr
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, jr.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// getJSON GETs a URL and decodes its JSON body into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

// TestEndToEnd drives the whole API against the real planner: submit s386,
// poll to done, fetch the report, validate it, resubmit for the cache hit,
// and check the stats.
func TestEndToEnd(t *testing.T) {
	mgr := job.NewManager(job.Options{Workers: 2})
	defer mgr.Shutdown(context.Background())
	ts := httptest.NewServer(service.New(mgr))
	defer ts.Close()

	resp, jr := postJob(t, ts.URL, `{"source":{"circuit":"s386"},"config":{"seed":1}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if jr.ID == "" || jr.Digest == "" {
		t.Fatalf("submit response %+v", jr)
	}

	final := pollDone(t, ts.URL, jr.ID)
	if final.State != job.StateDone {
		t.Fatalf("job %s: %s", final.State, final.Err)
	}
	if final.Summary == nil || final.Summary.Circuit != "s386" {
		t.Fatalf("summary %+v", final.Summary)
	}
	if len(final.Report) == 0 {
		t.Fatal("terminal poll carries no report")
	}

	// The report endpoint serves the exact bytes; they must decode.
	rresp, err := http.Get(ts.URL + "/v1/jobs/" + jr.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := obs.DecodeReport(raw)
	if err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	if rep.Tool != "lacretd" || rep.Circuit != "s386" {
		t.Fatalf("report identity %s/%s", rep.Tool, rep.Circuit)
	}

	// Resubmit: cache hit, HTTP 200, byte-identical report.
	resp2, jr2 := postJob(t, ts.URL, `{"source":{"circuit":"s386"},"config":{"seed":1}}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cache-hit status %d", resp2.StatusCode)
	}
	if !jr2.CacheHit {
		t.Fatal("resubmission not marked cache hit")
	}
	rresp2, err := http.Get(ts.URL + "/v1/jobs/" + jr2.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := io.ReadAll(rresp2.Body)
	rresp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatal("cached report bytes differ from the original run")
	}

	// Stats reflect the round trip.
	var stats job.Stats
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Workers != 2 || stats.CacheHits != 1 || stats.Done != 2 {
		t.Fatalf("stats %+v", stats)
	}

	// The list endpoint shows both jobs.
	var list struct {
		Jobs []job.Status `json:"jobs"`
	}
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 2 {
		t.Fatalf("listed %d jobs", len(list.Jobs))
	}
}

// TestClientWaitAndReport drives the real service end to end the way a
// plain HTTP client does: submit, wait for terminal, fetch the report
// bytes, and check they agree with the report in the job envelope.
func TestClientWaitAndReport(t *testing.T) {
	mgr := job.NewManager(job.Options{Workers: 1})
	defer mgr.Shutdown(context.Background())
	ts := httptest.NewServer(service.New(mgr))
	defer ts.Close()

	resp, jr := postJob(t, ts.URL, `{"source":{"circuit":"s400"}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	fin := pollDone(t, ts.URL, jr.ID)
	if fin.State != job.StateDone {
		t.Fatalf("job ended %s: %s", fin.State, fin.Err)
	}
	rresp, err := http.Get(ts.URL + "/v1/jobs/" + jr.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("report status %d", rresp.StatusCode)
	}
	// The job envelope re-indents the embedded report (the envelope itself
	// is an indented encoding); only /report is bit-exact. The two must
	// still agree as JSON values.
	var a, b bytes.Buffer
	if err := json.Compact(&a, rep); err != nil {
		t.Fatalf("report endpoint returned invalid JSON: %v", err)
	}
	if err := json.Compact(&b, fin.Report); err != nil {
		t.Fatalf("job envelope report invalid: %v", err)
	}
	if a.String() != b.String() {
		t.Fatal("report endpoint and job envelope disagree")
	}
	var st job.Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Done != 1 {
		t.Fatalf("stats done = %d, want 1", st.Done)
	}
}

// TestSSEStream reads the event stream of a finished job: history replay in
// SSE framing, terminated by the server closing the stream.
func TestSSEStream(t *testing.T) {
	mgr := job.NewManager(job.Options{Workers: 1,
		Run: func(ctx context.Context, r *job.PlanRequest, trace func(plan.StageEvent)) (*job.RunResult, error) {
			trace(plan.StageEvent{Stage: "partition"})
			trace(plan.StageEvent{Stage: "route", Index: 1})
			return &job.RunResult{Circuit: r.Source.Label()}, nil
		}})
	defer mgr.Shutdown(context.Background())
	ts := httptest.NewServer(service.New(mgr))
	defer ts.Close()

	_, jr := postJob(t, ts.URL, `{"source":{"circuit":"s386"},"config":{"seed":1}}`)
	pollDone(t, ts.URL, jr.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + jr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var events []job.Event
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev job.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			events = append(events, ev)
		}
	}
	// queued, running, 2 stages, done
	if len(events) != 5 {
		t.Fatalf("got %d events: %+v", len(events), events)
	}
	if events[0].State != job.StateQueued || events[len(events)-1].State != job.StateDone {
		t.Fatalf("event envelope %+v", events)
	}
	if events[2].Stage != "partition" || events[3].Stage != "route" {
		t.Fatalf("stage events %+v", events[2:4])
	}
}

// TestCancelEndpoint blocks a job and cancels it over HTTP.
func TestCancelEndpoint(t *testing.T) {
	mgr := job.NewManager(job.Options{Workers: 1,
		Run: func(ctx context.Context, r *job.PlanRequest, trace func(plan.StageEvent)) (*job.RunResult, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}})
	defer mgr.Shutdown(context.Background())
	ts := httptest.NewServer(service.New(mgr))
	defer ts.Close()

	_, jr := postJob(t, ts.URL, `{"source":{"circuit":"s386"},"config":{"seed":1}}`)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+jr.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	final := pollDone(t, ts.URL, jr.ID)
	if final.State != job.StateCanceled {
		t.Fatalf("state %s, want canceled", final.State)
	}
}

// TestBackpressure429 fills the queue and expects 429 + Retry-After.
func TestBackpressure429(t *testing.T) {
	var started atomic.Bool
	release := make(chan struct{})
	mgr := job.NewManager(job.Options{Workers: 1, QueueDepth: 1,
		Run: func(ctx context.Context, r *job.PlanRequest, trace func(plan.StageEvent)) (*job.RunResult, error) {
			started.Store(true)
			select {
			case <-release:
			case <-ctx.Done():
			}
			return &job.RunResult{Circuit: r.Source.Label()}, nil
		}})
	// Unblock the workers before the drain, or Shutdown waits forever.
	defer mgr.Shutdown(context.Background())
	defer close(release)
	ts := httptest.NewServer(service.New(mgr))
	defer ts.Close()

	postJob(t, ts.URL, `{"source":{"circuit":"s386"},"config":{"seed":1}}`)
	deadline := time.Now().Add(10 * time.Second)
	for !started.Load() {
		if time.Now().After(deadline) {
			t.Fatal("worker never started")
		}
		time.Sleep(time.Millisecond)
	}
	postJob(t, ts.URL, `{"source":{"circuit":"s386"},"config":{"seed":2}}`)
	resp, _ := postJob(t, ts.URL, `{"source":{"circuit":"s386"},"config":{"seed":3}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestMemoryPressure429: the service maps the governor's rejection to 429
// with a Retry-After, the same backpressure answer as a full queue.
func TestMemoryPressure429(t *testing.T) {
	// A 1-byte limit rejects every submission on the real heap probe.
	mgr := job.NewManager(job.Options{Workers: 1, MaxMemBytes: 1})
	defer mgr.Shutdown(context.Background())
	ts := httptest.NewServer(service.New(mgr))
	defer ts.Close()

	resp, _ := postJob(t, ts.URL, `{"source":{"circuit":"s400"}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d under memory pressure, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestHTTPServerTimeouts pins the daemon's server hardening: header and
// read deadlines and idle reaping are set, and there is no write timeout —
// it would sever long-lived SSE streams.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := service.HTTPServer(":0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("missing timeouts: header %s read %s idle %s",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("write timeout %s would kill SSE subscriptions", srv.WriteTimeout)
	}
}

// TestLegacyProbeEngineAccepted: requests from clients that still send the
// retired probe_engine field are accepted for every value it ever took and
// land on one digest (TestBadRequests keeps any other value a 400).
func TestLegacyProbeEngineAccepted(t *testing.T) {
	mgr := job.NewManager(job.Options{Workers: 1, QueueDepth: 8,
		Run: func(ctx context.Context, r *job.PlanRequest, trace func(plan.StageEvent)) (*job.RunResult, error) {
			return &job.RunResult{Circuit: r.Source.Label()}, nil
		}})
	defer mgr.Shutdown(context.Background())
	ts := httptest.NewServer(service.New(mgr))
	defer ts.Close()

	var digest string
	for _, engine := range []string{"", "auto", "dense", "lazy"} {
		body := `{"source":{"circuit":"s386"},"config":{"seed":1,"probe_engine":"` + engine + `"}}`
		resp, jr := postJob(t, ts.URL, body)
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("probe_engine %q: status %d", engine, resp.StatusCode)
		}
		if digest == "" {
			digest = jr.Digest
		} else if jr.Digest != digest {
			t.Fatalf("probe_engine %q: digest %s, want %s", engine, jr.Digest, digest)
		}
	}
}

// TestBadRequests covers the 4xx surface: malformed body, unknown fields,
// invalid config, unknown job IDs, and a report demanded too early.
func TestBadRequests(t *testing.T) {
	release := make(chan struct{})
	mgr := job.NewManager(job.Options{Workers: 1,
		Run: func(ctx context.Context, r *job.PlanRequest, trace func(plan.StageEvent)) (*job.RunResult, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return &job.RunResult{Circuit: r.Source.Label()}, nil
		}})
	// Unblock the workers before the drain, or Shutdown waits forever.
	defer mgr.Shutdown(context.Background())
	defer close(release)
	ts := httptest.NewServer(service.New(mgr))
	defer ts.Close()

	for _, body := range []string{
		`{not json`,
		`{"source":{"circuit":"s386"},"bogus":1}`,
		`{"source":{"circuit":"nosuch"}}`,
		`{"source":{"circuit":"s386"},"config":{"probe_engine":"eager"}}`,
		`{"config":{"seed":1}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/nosuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", resp.StatusCode)
	}

	_, jr := postJob(t, ts.URL, `{"source":{"circuit":"s386"},"config":{"seed":1}}`)
	rresp, err := http.Get(ts.URL + "/v1/jobs/" + jr.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusConflict {
		t.Fatalf("early report: %d, want 409", rresp.StatusCode)
	}
}
