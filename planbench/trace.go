package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the planner.
// Start and End are offsets from the tracer's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = root
	Name   string        `json:"name"`
	Job    string        `json:"job,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer records spans in memory. The nil tracer records nothing, so the
// untraced runs pay only a nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on the nil tracer).
func (t *tracer) begin(name, job string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job, Start: now})
	return len(t.spans)
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layerTime is one layer's accumulated time over a run.
type layerTime struct {
	Calls  int
	BusyMS float64 // summed span durations
	SelfMS float64 // busy time not covered by child spans
}

// layerTimes derives busy and self time per span name. A span's self time
// is its duration minus the durations of its direct children; children of
// one parent run one after another, so their durations never overlap.
func layerTimes(spans []span) map[string]*layerTime {
	child := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Calls++
		lt.BusyMS += ms(d)
		lt.SelfMS += ms(d - child[s.ID])
	}
	return out
}

// sortedNames returns the keys of a layer map in a stable order.
func sortedNames(m map[string]*layerTime) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// writeSpans saves the recorded spans as JSON.
func (t *tracer) writeSpans(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
