// Package obs is the planner's observability substrate: a zero-dependency
// metrics registry (counters, gauges, status strings, fixed-bucket
// histograms) and hierarchical spans that extend the pipeline's flat
// per-stage trace into nested sub-stage events (period-search probes,
// rip-up rounds, LAC reweighting rounds, flow-engine phases).
//
// Everything is nil-safe by design: a nil *Registry, *Recorder, *Counter,
// *Gauge, *Histogram, or *Span accepts every method as a no-op. Code under
// instrumentation therefore never branches on "is observability on" — it
// asks the context for a recorder (FromContext / StartSpan) and calls
// through whatever it gets. When no recorder was installed the handles are
// nil and the whole path is zero-alloc (locked by TestDisabledZeroAlloc
// and BenchmarkDisabled), so the golden bit-identity of unobserved runs is
// preserved at effectively zero cost.
//
// One event stream, three sinks: a versioned JSON run report (report.go),
// Chrome trace-event export for chrome://tracing / Perfetto
// (chrometrace.go), and a live pprof/metrics HTTP listener (debug.go).
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The nil counter discards
// all updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for the nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time float value (last write wins). The nil gauge
// discards all updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v as the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the gauge's current value (0 for the nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Status is a string-valued gauge (e.g. the pipeline stage currently
// running), for the live /metrics view. The nil status discards updates.
type Status struct {
	v atomic.Value // string
}

// Set stores s as the status's current value.
func (s *Status) Set(val string) {
	if s == nil {
		return
	}
	s.v.Store(val)
}

// Value returns the current string ("" for the nil status).
func (s *Status) Value() string {
	if s == nil {
		return ""
	}
	v, _ := s.v.Load().(string)
	return v
}

// Registry holds named metrics. Lookup creates on first use; handles are
// stable and safe for concurrent use. The nil registry returns nil handles
// from every lookup, which in turn no-op, so callers never guard.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	status   map[string]*Status
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		status:   map[string]*Status{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Status returns the named status string, creating it on first use.
func (r *Registry) Status(name string) *Status {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.status[name]
	if !ok {
		s = &Status{}
		r.status[name] = s
	}
	return s
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use. Later lookups return the existing histogram
// regardless of bounds, so call sites agree on one layout per name.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is the serializable state of one histogram.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	P50    float64   `json:"p50"`
	P90    float64   `json:"p90"`
	P99    float64   `json:"p99"`
}

// MetricsSnapshot is a point-in-time copy of a registry, with sorted keys,
// for the run report and the /metrics exposition.
type MetricsSnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Status     map[string]string            `json:"status,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current values. The nil registry yields a
// zero snapshot.
func (r *Registry) Snapshot() MetricsSnapshot {
	var snap MetricsSnapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		snap.Counters = make(map[string]int64, len(r.counters))
		for k, c := range r.counters {
			snap.Counters[k] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		snap.Gauges = make(map[string]float64, len(r.gauges))
		for k, g := range r.gauges {
			snap.Gauges[k] = g.Value()
		}
	}
	if len(r.status) > 0 {
		snap.Status = make(map[string]string, len(r.status))
		for k, s := range r.status {
			snap.Status[k] = s.Value()
		}
	}
	if len(r.hists) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for k, h := range r.hists {
			snap.Histograms[k] = h.Snapshot()
		}
	}
	return snap
}

// CounterNames lists the registered counter names in sorted order.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for k := range r.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
