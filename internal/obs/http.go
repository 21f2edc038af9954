package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// DebugServer is the live inspection endpoint a long run exposes via
// -debug-addr: Prometheus /metrics, /runinfo (a JSON snapshot of the run),
// /healthz and /readyz probes, and the full net/http/pprof suite under
// /debug/pprof/.
type DebugServer struct {
	srv *http.Server
	lis net.Listener
}

// DebugConfig selects what a debug server exposes. Every field is
// optional: a zero config still serves an empty-but-valid /metrics,
// always-200 probes, and pprof.
type DebugConfig struct {
	// Registry backs GET /metrics (nil serves an empty exposition).
	Registry *Registry
	// RunInfo backs GET /runinfo (nil 404s the route).
	RunInfo func() any
	// Live backs GET /healthz: nil or a nil return is 200 "ok", an error
	// is 503 with the message. Liveness should fail only when the process
	// is beyond recovery (a restart would help).
	Live func() error
	// Ready backs GET /readyz the same way. Readiness gates traffic: fail
	// it while the process is alive but should not receive requests yet
	// (no model installed, checkpoint too stale).
	Ready func() error
	// Traces backs GET /debug/traces (nil leaves the route unmounted).
	// rtrace.Tracer.TracesHandler serves its span ring buffer here as
	// Chrome trace-event JSON; obs stays decoupled from the tracer by
	// taking a plain handler.
	Traces http.Handler
	// Slowest backs GET /debug/slowest the same way
	// (rtrace.Tracer.SlowestHandler: the per-endpoint slow-request
	// flight recorder).
	Slowest http.Handler
}

// DebugMux builds the debug route table without binding a listener, so
// tests can drive it through net/http/httptest.
func DebugMux(cfg DebugConfig) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if cfg.Registry != nil {
			cfg.Registry.WritePrometheus(w)
		}
	})
	if cfg.RunInfo != nil {
		mux.HandleFunc("GET /runinfo", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(cfg.RunInfo())
		})
	}
	probe := func(check func() error) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if check != nil {
				if err := check(); err != nil {
					http.Error(w, err.Error(), http.StatusServiceUnavailable)
					return
				}
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.Write([]byte("ok\n"))
		}
	}
	mux.HandleFunc("GET /healthz", probe(cfg.Live))
	mux.HandleFunc("GET /readyz", probe(cfg.Ready))
	if cfg.Traces != nil {
		mux.Handle("GET /debug/traces", cfg.Traces)
	}
	if cfg.Slowest != nil {
		mux.Handle("GET /debug/slowest", cfg.Slowest)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// StartDebugServer listens on addr (":0" picks a free port; see Addr) and
// serves DebugMux(cfg) in a background goroutine.
func StartDebugServer(addr string, cfg DebugConfig) (*DebugServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &DebugServer{srv: &http.Server{Handler: DebugMux(cfg)}, lis: lis}
	go d.srv.Serve(lis)
	return d, nil
}

// Addr returns the bound listen address (useful with ":0").
func (d *DebugServer) Addr() string { return d.lis.Addr().String() }

// Close stops the server immediately.
func (d *DebugServer) Close() error { return d.srv.Close() }

// RegisterProcessMetrics adds scrape-time process-level gauges (goroutines,
// heap footprint, GC work, uptime) to reg, so every -debug-addr endpoint
// answers the basic "is this process healthy" questions without wiring.
func RegisterProcessMetrics(reg *Registry) {
	start := time.Now()
	reg.Func("process_uptime_seconds", "Seconds since the process registered its metrics.", Gauge, nil,
		func() []Sample {
			return []Sample{{Value: time.Since(start).Seconds()}}
		})
	reg.Func("go_goroutines", "Live goroutines.", Gauge, nil, func() []Sample {
		return []Sample{{Value: float64(runtime.NumGoroutine())}}
	})
	reg.Func("go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.", Gauge, nil,
		func() []Sample {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return []Sample{{Value: float64(ms.HeapAlloc)}}
		})
	reg.Func("go_memstats_total_alloc_bytes", "Cumulative bytes allocated on the heap.", Counter, nil,
		func() []Sample {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return []Sample{{Value: float64(ms.TotalAlloc)}}
		})
	reg.Func("go_gc_cycles_total", "Completed GC cycles.", Counter, nil, func() []Sample {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return []Sample{{Value: float64(ms.NumGC)}}
	})
}

// StatusWriter records the status code a handler wrote, for the request
// middleware of the serving processes (internal/serve's one, shared by the
// server and the fleet frontend) to label its counters and spans with. Code
// starts at 200, what net/http sends when a handler never calls WriteHeader.
type StatusWriter struct {
	http.ResponseWriter
	Code int
}

// NewStatusWriter wraps w.
func NewStatusWriter(w http.ResponseWriter) *StatusWriter {
	return &StatusWriter{ResponseWriter: w, Code: http.StatusOK}
}

// WriteHeader records code and forwards it.
func (w *StatusWriter) WriteHeader(code int) {
	w.Code = code
	w.ResponseWriter.WriteHeader(code)
}

// HTTPError replies with status code and the JSON body {"error": msg} —
// the error shape of every /v1, /shard/v1 and /admin endpoint.
func HTTPError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// WriteJSON replies 200 with v as the JSON body.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
