// Package service is the daemon's HTTP API over the job layer: submit a
// plan request, poll a job, stream its live progress, cancel it, and
// inspect the pool. The API is versioned under /v1/:
//
//	POST   /v1/jobs          submit a PlanRequest        → 202 (200 cache hit)
//	GET    /v1/jobs          list tracked jobs
//	GET    /v1/jobs/{id}     poll: status + report when terminal
//	GET    /v1/jobs/{id}/report  the raw run-report bytes
//	GET    /v1/jobs/{id}/events  live progress (Server-Sent Events)
//	GET    /v1/jobs/{id}/trace   span forest: JSON, or ?format=chrome
//	DELETE /v1/jobs/{id}     cancel
//	GET    /v1/stats         pool, cache, and metrics snapshot
//
// plus the operational surface outside the version prefix:
//
//	GET /metrics   the manager's registry in Prometheus text format
//	GET /healthz   liveness: 200 while the process serves
//	GET /readyz    readiness: 503 while draining or under memory pressure
//
// Every endpoint runs through one middleware recording per-route latency
// histograms (http.latency_ms.<route>), status-class counters
// (http.requests.<route>.<N>xx), and an in-flight gauge into the
// manager's registry — the same registry /metrics exposes, so the HTTP
// plane and the job plane land in one scrape.
//
// Backpressure surfaces as HTTP 429 with a Retry-After header; a draining
// daemon answers submissions with 503.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"lacret/internal/job"
	"lacret/internal/obs"
)

// maxRequestBytes bounds a submission body (inline .bench netlists can be
// sizable, but not unbounded).
const maxRequestBytes = 64 << 20

// defaultSSEKeepalive is how often an idle event stream emits a ": ping"
// comment. Comments are invisible to SSE consumers but count as traffic,
// so proxies and the server's own idle timeout (2 minutes in HTTPServer)
// don't sever a subscription that is quietly waiting on a long stage.
const defaultSSEKeepalive = 15 * time.Second

// Server serves the job API. Construct with New; it is an http.Handler.
type Server struct {
	mgr *job.Manager
	mux *http.ServeMux
	log *slog.Logger // nil = request logging disabled
	reg *obs.Registry

	keepalive time.Duration
	inFlight  atomic.Int64
	gInFlight *obs.Gauge
}

// Option configures a Server at construction.
type Option func(*Server)

// WithLogger installs the request logger: one line per request (method,
// route, status, duration, and the job ID when the route carries one) at
// debug level, warnings for 5xx. nil (the default) disables logging.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.log = l }
}

// WithSSEKeepalive overrides the event-stream ping interval (tests dial
// it down to observe pings; production keeps the default 15s).
func WithSSEKeepalive(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.keepalive = d
		}
	}
}

// New builds the API server over a manager.
func New(mgr *job.Manager, opts ...Option) *Server {
	s := &Server{
		mgr:       mgr,
		mux:       http.NewServeMux(),
		reg:       mgr.Registry(),
		keepalive: defaultSSEKeepalive,
	}
	for _, o := range opts {
		o(s)
	}
	s.gInFlight = s.reg.Gauge("http.in_flight")
	s.handle("POST /v1/jobs", "submit", s.submit)
	s.handle("GET /v1/jobs", "list", s.list)
	s.handle("GET /v1/jobs/{id}", "get", s.get)
	s.handle("GET /v1/jobs/{id}/report", "report", s.report)
	s.handle("GET /v1/jobs/{id}/events", "events", s.events)
	s.handle("GET /v1/jobs/{id}/trace", "trace", s.trace)
	s.handle("DELETE /v1/jobs/{id}", "cancel", s.cancel)
	s.handle("GET /v1/stats", "stats", s.stats)
	s.handle("GET /metrics", "metrics", s.metrics)
	s.handle("GET /healthz", "healthz", s.healthz)
	s.handle("GET /readyz", "readyz", s.readyz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// handle registers one route behind the instrumentation middleware. The
// metric handles are resolved once here, not per request, so the hot path
// takes no registry lock.
func (s *Server) handle(pattern, name string, h http.HandlerFunc) {
	lat := s.reg.Histogram("http.latency_ms."+name, obs.DurationBucketsMS)
	var classes [6]*obs.Counter
	for c := 1; c <= 5; c++ {
		classes[c] = s.reg.Counter(fmt.Sprintf("http.requests.%s.%dxx", name, c))
	}
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		s.gInFlight.Set(float64(s.inFlight.Add(1)))
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		s.gInFlight.Set(float64(s.inFlight.Add(-1)))
		dur := time.Since(t0)
		lat.Observe(float64(dur.Microseconds()) / 1000)
		code := sw.status()
		if cls := code / 100; cls >= 1 && cls <= 5 {
			classes[cls].Inc()
		}
		if s.log != nil {
			lvl := slog.LevelDebug
			if code >= 500 {
				lvl = slog.LevelWarn
			}
			attrs := []slog.Attr{
				slog.String("method", r.Method),
				slog.String("route", name),
				slog.Int("status", code),
				slog.Duration("dur", dur),
			}
			if id := r.PathValue("id"); id != "" {
				attrs = append(attrs, slog.String("job", id))
			}
			s.log.LogAttrs(r.Context(), lvl, "http request", attrs...)
		}
	})
}

// statusWriter captures the response status for the middleware. It keeps
// http.Flusher reachable, which the SSE endpoint needs.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// status returns the committed status; a handler that never wrote is an
// implicit 200.
func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// Flush passes through to the underlying flusher (SSE streaming).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// HTTPServer wraps a handler in an http.Server with the daemon's timeout
// policy: slow-loris protection on headers and bodies, idle-connection
// reaping, and no overall write timeout — the events endpoint streams SSE
// for as long as a plan runs, so a write deadline would sever every
// long-lived subscription.
func HTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// jobResponse is a job status plus, once the job is terminal, the run
// report embedded verbatim (json.RawMessage keeps the cached bytes
// byte-identical inside the envelope).
type jobResponse struct {
	job.Status
	Report json.RawMessage `json:"report,omitempty"`
}

func response(j *job.Job) jobResponse {
	resp := jobResponse{Status: j.Status()}
	if resp.State.Terminal() {
		if out := j.Outcome(); out != nil {
			resp.Report = out.Report
		}
	}
	return resp
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var req job.PlanRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	j, err := s.mgr.Submit(req)
	if err != nil {
		var full *job.ErrQueueFull
		var mem *job.ErrMemoryPressure
		switch {
		case errors.As(err, &full):
			w.Header().Set("Retry-After", strconv.Itoa(int(full.RetryAfter.Seconds())))
			writeError(w, http.StatusTooManyRequests, "%v", err)
		case errors.As(err, &mem):
			// Overload, not a bad request: the client should back off the
			// same way it does for a full queue.
			w.Header().Set("Retry-After", strconv.Itoa(int(mem.RetryAfter.Seconds())))
			writeError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, job.ErrShutdown):
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	code := http.StatusAccepted
	if j.Status().CacheHit {
		code = http.StatusOK
	}
	writeJSON(w, code, response(j))
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*job.Job, bool) {
	j, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
	}
	return j, ok
}

func (s *Server) get(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, response(j))
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []job.Status `json:"jobs"`
	}{Jobs: s.mgr.Jobs()})
}

// report serves the job's run report as the exact bytes the run encoded —
// the endpoint whose output feeds lacplan -check-report and whose
// bit-identity the cache test pins.
func (s *Server) report(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if !j.State().Terminal() {
		writeError(w, http.StatusConflict, "job %s is %s; report available once terminal", j.ID(), j.State())
		return
	}
	out := j.Outcome()
	if out == nil || len(out.Report) == 0 {
		writeError(w, http.StatusNotFound, "job %s produced no report", j.ID())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(out.Report)
}

// traceResponse is the JSON shape of the trace endpoint: the span forest
// plus the run's final metrics snapshot.
type traceResponse struct {
	ID      string              `json:"id"`
	State   job.State           `json:"state"`
	Circuit string              `json:"circuit,omitempty"`
	Spans   []*obs.Span         `json:"spans"`
	Metrics obs.MetricsSnapshot `json:"metrics"`
}

// trace serves a terminal job's span forest — the hierarchical sub-stage
// timeline internal/obs collected while the job ran — as JSON, or as
// Chrome trace-event format with ?format=chrome (load the body in
// chrome://tracing or ui.perfetto.dev). The forest is the one captured at
// run end and persisted with the outcome, so it survives a restart; the
// report supplies the circuit name and metrics.
func (s *Server) trace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if !j.State().Terminal() {
		writeError(w, http.StatusConflict, "job %s is %s; trace available once terminal", j.ID(), j.State())
		return
	}
	out := j.Outcome()
	if out == nil || len(out.Trace) == 0 {
		writeError(w, http.StatusNotFound, "job %s produced no trace", j.ID())
		return
	}
	var rep *obs.Report
	if len(out.Report) > 0 {
		rep, _ = obs.DecodeReport(out.Report)
	}
	switch r.URL.Query().Get("format") {
	case "", "json":
		resp := traceResponse{ID: j.ID(), State: j.State(), Spans: out.Trace}
		if rep != nil {
			resp.Circuit = rep.Circuit
			resp.Metrics = rep.Metrics
		}
		writeJSON(w, http.StatusOK, resp)
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteChromeTrace(w, []obs.TraceTrack{{Name: j.ID(), Spans: out.Trace}})
	default:
		writeError(w, http.StatusBadRequest, "unknown trace format %q (want json or chrome)", r.URL.Query().Get("format"))
	}
}

// events streams the job's progress as Server-Sent Events: the full event
// history first (so late subscribers see everything), then live events
// until the job reaches a terminal state or the client goes away. Idle
// streams carry ": ping" comments so proxies and idle timeouts see a live
// connection while a long stage runs quietly.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	hist, live, unsubscribe := j.Subscribe()
	defer unsubscribe()
	for _, ev := range hist {
		if !writeSSE(w, ev) {
			return
		}
	}
	flusher.Flush()
	keepalive := time.NewTicker(s.keepalive)
	defer keepalive.Stop()
	for {
		select {
		case ev, open := <-live:
			if !open {
				return // job terminal: history carried the final state event
			}
			if !writeSSE(w, ev) {
				return
			}
			flusher.Flush()
		case <-keepalive.C:
			if _, err := io.WriteString(w, ": ping\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE emits one event in SSE framing; false on a dead client.
func writeSSE(w http.ResponseWriter, ev job.Event) bool {
	data, err := json.Marshal(ev)
	if err != nil {
		return false
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	return err == nil
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.mgr.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, response(j))
}

func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.Stats())
}

// metrics serves the manager's registry — job counters, queue-wait and
// run-duration histograms, heap and goroutine gauges refreshed per scrape,
// and the HTTP plane's own latency/status metrics — in Prometheus text
// exposition format.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)
	_ = obs.WritePrometheusSnapshot(w, s.mgr.Metrics())
}

// healthz is the liveness probe: if this handler runs, the process is
// alive. It stays 200 through drain — killing a draining daemon early
// would cut in-flight jobs off the anytime path.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// readyz is the readiness probe: 503 while the manager is draining or the
// memory governor is shedding, so a load balancer stops routing new work
// before clients start eating 429s and 503s.
func (s *Server) readyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if ok, reason := s.mgr.Ready(); !ok {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, reason)
		return
	}
	fmt.Fprintln(w, "ready")
}
