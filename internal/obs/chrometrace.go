package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// TraceTrack is one timeline row of a Chrome trace: a named thread (tid)
// whose spans render as nested slices. The table1 worker pool exports one
// track per circuit; lacplan one per planning pass.
type TraceTrack struct {
	Name  string
	Spans []*Span
}

// chromeEvent is one entry of the Chrome trace-event format ("Trace Event
// Format", the JSON dialect chrome://tracing and Perfetto load). Complete
// events ("X") carry ts+dur in microseconds; metadata events ("M") name
// the threads.
type chromeEvent struct {
	Name string             `json:"name"`
	Ph   string             `json:"ph"`
	Pid  int                `json:"pid"`
	Tid  int                `json:"tid"`
	Ts   float64            `json:"ts"`
	Dur  float64            `json:"dur,omitempty"`
	Args map[string]float64 `json:"args,omitempty"`
	// SArgs carries string-valued metadata args (thread names).
	SArgs map[string]string `json:"-"`
}

// MarshalJSON folds SArgs into args (the two are mutually exclusive here).
func (e chromeEvent) MarshalJSON() ([]byte, error) {
	type alias chromeEvent
	if e.SArgs == nil {
		return json.Marshal(alias(e))
	}
	return json.Marshal(struct {
		alias
		Args map[string]string `json:"args"`
	}{alias: alias(e), Args: e.SArgs})
}

// WriteChromeTrace renders the tracks as a Chrome trace-event JSON object.
// Open the file in chrome://tracing or https://ui.perfetto.dev to see the
// run as a zoomable timeline: one row per track, nested slices per span,
// attributes in the selection panel.
func WriteChromeTrace(w io.Writer, tracks []TraceTrack) error {
	var events []chromeEvent
	for tid, tr := range tracks {
		name := tr.Name
		if name == "" {
			name = fmt.Sprintf("track %d", tid)
		}
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			SArgs: map[string]string{"name": name},
		})
		for _, sp := range tr.Spans {
			events = appendSpanEvents(events, sp, tid)
		}
	}
	out := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

func appendSpanEvents(events []chromeEvent, sp *Span, tid int) []chromeEvent {
	if sp == nil {
		return events
	}
	ev := chromeEvent{
		Name: sp.Name, Ph: "X", Pid: 1, Tid: tid,
		Ts:  float64(sp.Start.Nanoseconds()) / 1e3,
		Dur: float64(sp.Dur.Nanoseconds()) / 1e3,
	}
	if len(sp.Attrs) > 0 {
		ev.Args = make(map[string]float64, len(sp.Attrs))
		for _, a := range sp.Attrs {
			ev.Args[a.Key] = a.Value
		}
	}
	events = append(events, ev)
	for _, c := range sp.Children {
		events = appendSpanEvents(events, c, tid)
	}
	return events
}
