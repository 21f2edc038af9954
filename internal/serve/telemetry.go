package serve

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/quant"
)

// latencyBuckets are the request-latency histogram upper bounds in seconds,
// spaced for sub-millisecond scoring up to multi-second stragglers.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// scanBuckets resolve the top-N scan itself (no HTTP or queueing), which
// sits well under the request buckets: tens of microseconds for small
// catalogs up to ~100ms for huge ones on a loaded box.
var scanBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.1,
}

// Telemetry aggregates the serving metrics exported at /metrics in the
// Prometheus text format: per-endpoint/status request counters, a global
// latency histogram, an in-flight gauge, shed and swap counters, and — once
// the checkpoint watcher installs a model — freshness gauges. It is a thin
// facade over an obs.Registry, so the serving metrics share one renderer
// (and one exposition-format contract) with the training-side metrics.
type Telemetry struct {
	reg *obs.Registry

	requests     *obs.Vec
	latency      *obs.Vec
	scan         *obs.Vec
	scanRows     [quant.I8 + 1][2]*obs.Metric // [precision]{scored, pruned}
	inflight     *obs.Metric
	shed         *obs.Vec
	swaps        *obs.Metric
	swapRejected *obs.Metric

	mu       sync.Mutex
	lastSwap time.Time // zero until the watcher installs a model
	now      func() time.Time
}

// NewTelemetry returns an empty registry. The zero-label families are
// instantiated eagerly so they render as 0 before first use.
func NewTelemetry() *Telemetry {
	reg := obs.NewRegistry()
	t := &Telemetry{
		reg:      reg,
		requests: reg.Counter("als_requests_total", "Finished requests by endpoint and status code.", "endpoint", "code"),
		latency:  reg.Histogram("als_request_seconds", "Request latency by status code.", latencyBuckets, "code"),
		scan: reg.Histogram("als_scan_seconds",
			"Top-N scan latency (scoring only, no HTTP) by snapshot precision.", scanBuckets, "precision"),
		inflight: reg.Gauge("als_inflight_requests", "Requests currently being handled.").With(),
		shed:     reg.Counter("als_shed_total", "Requests rejected with 429 by the admission queue, by endpoint.", "endpoint"),
		swaps:    reg.Counter("als_model_swaps_total", "Model hot-swaps since start.").With(),
		swapRejected: reg.Counter("als_swap_rejected_total",
			"Candidate models rejected as corrupt or unreadable; the previous snapshot keeps serving.").With(),
		now: time.Now,
	}
	// Resolved once: the scan path adds to these on every request.
	rows := reg.Counter("als_scan_rows_total",
		"Item rows top-N scans scored exactly, and rows they pruned: the quantized scans' norm-bound stop rule, the float32 scan's screen.", "precision", "outcome")
	for p := range t.scanRows {
		prec := quant.Precision(p).String()
		t.scanRows[p] = [2]*obs.Metric{rows.With(prec, "scored"), rows.With(prec, "pruned")}
	}
	// A property of the build, not of the snapshot: which int8 block kernel
	// the quantized serving scan runs.
	reg.Gauge("als_scan_kernel_info", "Int8 block kernel of this build's quantized serving scan (value is always 1).",
		"kernel").With(quant.KernelName()).Set(1)
	reg.Func("als_last_swap_timestamp_seconds",
		"Unix time the checkpoint watcher last installed a model; absent before the first install.",
		obs.Gauge, nil, func() []obs.Sample {
			t.mu.Lock()
			last := t.lastSwap
			t.mu.Unlock()
			if last.IsZero() {
				return nil
			}
			return []obs.Sample{{Value: float64(last.UnixNano()) / 1e9}}
		})
	reg.Func("als_checkpoint_age_seconds",
		"Seconds since the checkpoint watcher last installed a model; absent before the first install.",
		obs.Gauge, nil, func() []obs.Sample {
			t.mu.Lock()
			last, now := t.lastSwap, t.now()
			t.mu.Unlock()
			if last.IsZero() {
				return nil
			}
			return []obs.Sample{{Value: now.Sub(last).Seconds()}}
		})
	return t
}

// AttachServer registers the scrape-time collectors that read live server
// state: model identity from the snapshot store and hit rates from the
// response cache. Called once by New; current and cache may be nil.
func (t *Telemetry) AttachServer(current func() *Snapshot, cache *Cache) {
	if current != nil {
		t.reg.Func("als_model_info", "Live model identity (value is always 1).",
			obs.Gauge, []string{"version", "seq"}, func() []obs.Sample {
				sn := current()
				if sn == nil {
					return nil
				}
				return []obs.Sample{{Labels: []string{sn.Version, strconv.FormatUint(sn.Seq, 10)}, Value: 1}}
			})
		t.reg.Func("als_scorer_precision", "Scoring precision of the live snapshot (value is always 1).",
			obs.Gauge, []string{"precision"}, func() []obs.Sample {
				sn := current()
				if sn == nil {
					return nil
				}
				return []obs.Sample{{Labels: []string{sn.Precision.String()}, Value: 1}}
			})
		t.reg.Func("als_quant_max_abs_error",
			"Largest absolute dequantization error of the live snapshot's item factors, measured once at encode time; absent at f32.",
			obs.Gauge, nil, func() []obs.Sample {
				sn := current()
				if sn == nil || sn.QY == nil {
					return nil
				}
				return []obs.Sample{{Value: sn.QY.MaxAbsErr}}
			})
	}
	if cache != nil {
		t.reg.Func("als_cache_hits_total", "Response cache hits.", obs.Counter, nil,
			func() []obs.Sample {
				hits, _ := cache.Stats()
				return []obs.Sample{{Value: float64(hits)}}
			})
		t.reg.Func("als_cache_misses_total", "Response cache misses.", obs.Counter, nil,
			func() []obs.Sample {
				_, misses := cache.Stats()
				return []obs.Sample{{Value: float64(misses)}}
			})
		t.reg.Func("als_cache_entries", "Response cache occupancy.", obs.Gauge, nil,
			func() []obs.Sample {
				return []obs.Sample{{Value: float64(cache.Len())}}
			})
	}
}

// Registry exposes the underlying metric registry so embedders can serve it
// from an obs.DebugServer or add process-level collectors. Collector-backed
// families (model identity, cache stats, freshness) read the live state at
// scrape time.
func (t *Telemetry) Registry() *obs.Registry { return t.reg }

// Observe records one finished request. The status-code label is shared by
// the counter and the latency histogram (one strconv.Itoa per request), so
// a 429 spike and its latency profile line up on the same series.
func (t *Telemetry) Observe(endpoint string, code int, d time.Duration) {
	c := strconv.Itoa(code)
	t.requests.With(endpoint, c).Inc()
	t.latency.With(c).Observe(d.Seconds())
}

// ObserveScan records one completed top-N scan at the given precision: its
// duration and the item rows it scored and skipped.
func (t *Telemetry) ObserveScan(p quant.Precision, d time.Duration, scored, pruned int) {
	t.scan.With(p.String()).Observe(d.Seconds())
	t.scanRows[p][0].Add(float64(scored))
	t.scanRows[p][1].Add(float64(pruned))
}

// IncInflight/DecInflight track requests currently inside handlers.
func (t *Telemetry) IncInflight() { t.inflight.Add(1) }
func (t *Telemetry) DecInflight() { t.inflight.Add(-1) }

// Shed counts a request rejected by the admission queue (429) against the
// endpoint that shed it, so recommend and fold-in pressure are separable.
func (t *Telemetry) Shed(endpoint string) { t.shed.With(endpoint).Inc() }

// SwapRecorded counts a model hot-swap.
func (t *Telemetry) SwapRecorded() { t.swaps.Inc() }

// SwapInstalled marks the moment the checkpoint watcher installed a fresh
// model, feeding the freshness gauges. The timestamp comes from the
// watcher's (possibly fake) clock.
func (t *Telemetry) SwapInstalled(at time.Time) {
	t.mu.Lock()
	t.lastSwap = at
	t.mu.Unlock()
}

// LastSwap reports when the checkpoint watcher last installed a model;
// ok is false before the first install (including when models arrive only
// through POST /admin/swap, which carries no checkpoint timestamp).
func (t *Telemetry) LastSwap() (last time.Time, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastSwap, !t.lastSwap.IsZero()
}

// SwapRejected counts a candidate model that failed to load or verify
// (e.g. a corrupt checkpoint seen by the directory watcher); the server
// keeps serving the previous snapshot.
func (t *Telemetry) SwapRejected() { t.swapRejected.Inc() }

// SwapRejectedCount reads the rejection counter (tests and embedders).
func (t *Telemetry) SwapRejectedCount() uint64 { return uint64(t.swapRejected.Value()) }
