package rtrace

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/obs"
)

// chromeEvent is the Trace Event Format's JSON object form, which
// chrome://tracing and Perfetto load. This file is the repo's one trace
// exporter: a training run's timeline (alstrain -span-trace-out) and the
// serving fleet's /debug/traces both come out of it.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders the ring buffer as Chrome trace-event JSON. Each
// trace gets its own thread lane (named by trace ID) so concurrent requests
// do not interleave; timestamps are absolute wall-clock microseconds, which
// both viewers rebase to the earliest event.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return writeChromeTrace(w, t.processName(), t.Snapshot())
}

func (t *Tracer) processName() string {
	if t == nil || t.cfg.Process == "" {
		return "als"
	}
	return t.cfg.Process
}

func writeChromeTrace(w io.Writer, process string, spans []SpanRecord) error {
	events := []chromeEvent{
		{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": process}},
	}
	// One lane per trace, in order of first appearance.
	lane := make(map[TraceID]int)
	for _, s := range spans {
		tid, ok := lane[s.Trace]
		if !ok {
			tid = len(lane)
			lane[s.Trace] = tid
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: tid,
				Args: map[string]any{"name": "trace " + s.Trace.String()}})
		}
		args := map[string]any{
			"trace_id": s.Trace.String(),
			"span_id":  s.ID.String(),
		}
		if s.Parent != 0 {
			args["parent_id"] = s.Parent.String()
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: "span", Ph: "X",
			TS:  float64(s.Start.UnixNano()) / 1e3,
			Dur: float64(s.Dur.Nanoseconds()) / 1e3,
			PID: 1, TID: tid, Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
}

// spanJSON is the JSONL line form of one finished span.
type spanJSON struct {
	Trace       string            `json:"trace"`
	Span        string            `json:"span"`
	Parent      string            `json:"parent,omitempty"`
	Name        string            `json:"name"`
	StartUnixNS int64             `json:"start_unix_ns"`
	DurMS       float64           `json:"dur_ms"`
	Attrs       map[string]string `json:"attrs,omitempty"`
}

func recordJSON(s SpanRecord) spanJSON {
	j := spanJSON{
		Trace:       s.Trace.String(),
		Span:        s.ID.String(),
		Name:        s.Name,
		StartUnixNS: s.Start.UnixNano(),
		DurMS:       float64(s.Dur.Nanoseconds()) / 1e6,
	}
	if s.Parent != 0 {
		j.Parent = s.Parent.String()
	}
	if len(s.Attrs) > 0 {
		j.Attrs = make(map[string]string, len(s.Attrs))
		for _, a := range s.Attrs {
			j.Attrs[a.Key] = a.Value
		}
	}
	return j
}

// WriteJSONL renders the ring buffer one span-object per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.Snapshot() {
		if err := enc.Encode(recordJSON(s)); err != nil {
			return err
		}
	}
	return nil
}

// TracesHandler serves the ring buffer at /debug/traces: Chrome trace JSON
// by default, one span per line with ?format=jsonl. Nil-safe: a nil tracer
// returns a nil handler, which obs.DebugMux leaves unmounted.
func (t *Tracer) TracesHandler() http.Handler {
	if t == nil {
		return nil
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "jsonl" {
			w.Header().Set("Content-Type", "application/jsonl")
			t.WriteJSONL(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		t.WriteChromeTrace(w)
	})
}

// slowTraceJSON is one flight-recorder entry on /debug/slowest.
type slowTraceJSON struct {
	TraceID     string     `json:"trace_id"`
	StartUnixNS int64      `json:"start_unix_ns"`
	DurMS       float64    `json:"dur_ms"`
	Spans       []spanJSON `json:"spans"`
}

// SlowestHandler serves the flight recorder at /debug/slowest: endpoint →
// slowest-first retained traces, each with its full per-hop breakdown.
func (t *Tracer) SlowestHandler() http.Handler {
	if t == nil {
		return nil
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		out := make(map[string][]slowTraceJSON)
		for ep, traces := range t.Slowest() {
			lst := make([]slowTraceJSON, len(traces))
			for i, st := range traces {
				spans := make([]spanJSON, len(st.Spans))
				for j, s := range st.Spans {
					spans[j] = recordJSON(s)
				}
				lst[i] = slowTraceJSON{
					TraceID:     st.Trace.String(),
					StartUnixNS: st.Start.UnixNano(),
					DurMS:       float64(st.Dur.Nanoseconds()) / 1e6,
					Spans:       spans,
				}
			}
			out[ep] = lst
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out) // map keys marshal sorted, so output order is stable
	})
}

// ServeDebug is the one -debug-addr start-up of every binary: it adds the
// process gauges to cfg.Registry, mounts t's /debug/traces and
// /debug/slowest (a nil t leaves them unmounted), starts the server and
// prints the "debug server listening on http://<addr>" line operators and
// the process harness wait for.
func ServeDebug(addr string, t *Tracer, cfg obs.DebugConfig) (*obs.DebugServer, error) {
	obs.RegisterProcessMetrics(cfg.Registry)
	cfg.Traces, cfg.Slowest = t.TracesHandler(), t.SlowestHandler()
	dbg, err := obs.StartDebugServer(addr, cfg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("debug server listening on http://%s\n", dbg.Addr())
	return dbg, nil
}
