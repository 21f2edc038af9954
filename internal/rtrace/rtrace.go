// Package rtrace is a dependency-free request tracer for the serving and
// training fleet: 64-bit trace/span IDs, parent links, attributes and
// wall-clock timestamps, propagated across processes through a W3C
// traceparent-style HTTP header and a binary context frame in the trainer's
// TCP protocol. Finished traces land in a bounded in-memory ring buffer
// (served as Chrome trace-event JSON at /debug/traces) and a tail-based
// flight recorder that always keeps the N slowest requests per endpoint
// (/debug/slowest), so a slow p99 can be attributed to a specific shard
// hop, cache miss, scan or straggling trainer worker after the fact.
//
// The package is named rtrace (request trace) to avoid colliding with the
// paper-tuner's internal/trace.
//
// Everything is nil-safe: a nil *Tracer starts no spans, every method on a
// nil *Span is a no-op, and StartChild on a context without an active span
// returns nil — so instrumented code paths run unconditionally and cost
// nothing (no allocations, one context lookup) when tracing is off.
package rtrace

import (
	"context"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// TraceID and SpanID are 64-bit identifiers, rendered as 16 hex digits.
// Zero is "absent" in both cases; the generator never produces it.
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

func (id TraceID) String() string { return hex16(uint64(id)) }

// String renders the span ID as 16 lowercase hex digits.
func (id SpanID) String() string { return hex16(uint64(id)) }

func hex16(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// SpanRecord is a finished span: the immutable form that moves through the
// ring buffer, the flight recorder, the exporters and the trainer's
// frameSpans TCP frame.
type SpanRecord struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID // zero for a local root with no remote parent
	Name   string
	Start  time.Time
	Dur    time.Duration
	Attrs  []Attr
}

// Span is a live span. The zero of the API is nil: all methods no-op on a
// nil receiver, so callers never guard instrumentation sites.
type Span struct {
	tr   *Tracer
	grp  *group
	rec  SpanRecord
	done bool // guarded by grp.mu
}

// group collects every span of one locally-rooted trace so the whole bundle
// is published atomically when the root ends.
type group struct {
	mu    sync.Mutex
	root  *Span
	spans []SpanRecord
	ended bool
}

// Config sizes a Tracer. The zero value samples nothing.
type Config struct {
	// Sample is the head-sampling probability for new root spans in [0,1].
	// Requests arriving with a sampled remote context are always traced
	// (the upstream made the decision); unsampled remote contexts never are.
	Sample float64
	// Capacity bounds the finished-span ring buffer (default 4096 spans).
	// Overwritten spans count into als_trace_spans_dropped_total.
	Capacity int
	// Slowest is how many slowest traces the flight recorder retains per
	// endpoint (default 8; negative disables the recorder).
	Slowest int
	// Process names this process in exported traces ("alsfront",
	// "alsserve", ...).
	Process string
	// Now overrides the clock (tests).
	Now func() time.Time
}

// Tracer creates spans and owns the ring buffer + flight recorder. Safe for
// concurrent use; a nil *Tracer is a valid always-off tracer.
type Tracer struct {
	cfg     Config
	seed    uint64
	seq     atomic.Uint64
	spans   atomic.Uint64 // finished spans recorded
	dropped atomic.Uint64 // spans evicted from the ring
	ring    *ring
	flight  *flight
}

// New builds a tracer. A Sample of 0 still traces requests whose remote
// context is sampled (a downstream process of a sampling frontend).
func New(cfg Config) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	if cfg.Slowest == 0 {
		cfg.Slowest = 8
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	t := &Tracer{
		cfg:  cfg,
		seed: uint64(time.Now().UnixNano()) | 1,
		ring: newRing(cfg.Capacity),
	}
	if cfg.Slowest > 0 {
		t.flight = newFlight(cfg.Slowest)
	}
	return t
}

// nextID draws a non-zero pseudorandom 64-bit ID (splitmix64 over a
// process-unique seed and an atomic counter — lock-free and allocation-free).
func (t *Tracer) nextID() uint64 {
	x := t.seed + t.seq.Add(1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// sampled draws the head-sampling decision for a new local root.
func (t *Tracer) sampled() bool {
	p := t.cfg.Sample
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	// nextID is uniform over uint64; compare against p's share of the range.
	return float64(t.nextID()>>11)/(1<<53) < p
}

type ctxKey struct{}

// FromContext returns the active span, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Active reports whether ctx carries a live span — the guard for
// instrumentation that would otherwise allocate (span names built with
// fmt.Sprintf, say) on untraced requests.
func Active(ctx context.Context) bool { return FromContext(ctx) != nil }

// StartRequest opens a locally-rooted span for one request or run. When
// remote is valid it continues that trace (the span becomes a child of the
// remote span and inherits its sampling decision); otherwise the head
// sampler decides. A nil tracer or a negative decision returns (ctx, nil)
// without allocating.
func (t *Tracer) StartRequest(ctx context.Context, name string, remote SpanContext) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	var trace TraceID
	var parent SpanID
	if remote.Valid() {
		if !remote.Sampled {
			return ctx, nil
		}
		trace, parent = remote.Trace, remote.Span
	} else {
		if !t.sampled() {
			return ctx, nil
		}
		trace = TraceID(t.nextID())
	}
	s := &Span{
		tr:  t,
		grp: &group{spans: make([]SpanRecord, 0, 8)},
		rec: SpanRecord{
			Trace:  trace,
			ID:     SpanID(t.nextID()),
			Parent: parent,
			Name:   name,
			Start:  t.cfg.Now(),
		},
	}
	s.grp.root = s
	return context.WithValue(ctx, ctxKey{}, s), s
}

// StartChild opens a child of ctx's active span, returning a context that
// carries the child (so grandchildren nest). Without an active span it
// returns (ctx, nil) — one interface assertion, zero allocations.
func StartChild(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	t := parent.tr
	s := &Span{
		tr:  t,
		grp: parent.grp,
		rec: SpanRecord{
			Trace:  parent.rec.Trace,
			ID:     SpanID(t.nextID()),
			Parent: parent.rec.ID,
			Name:   name,
			Start:  t.cfg.Now(),
		},
	}
	return context.WithValue(ctx, ctxKey{}, s), s
}

// SetAttr annotates the span. No-op on nil.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.rec.Attrs = append(s.rec.Attrs, Attr{Key: key, Value: value})
}

// HeapAllocated is what the process has allocated on the heap so far, in
// bytes: the counter SetAllocMB takes a difference of.
func HeapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// SetAllocMB sets the span's alloc_mb attribute: the heap allocated since
// the HeapAllocated reading since, in MiB to one decimal. No-op on nil.
func (s *Span) SetAllocMB(since uint64) {
	if s == nil {
		return
	}
	s.SetAttr("alloc_mb", strconv.FormatFloat(float64(HeapAllocated()-since)/(1<<20), 'f', 1, 64))
}

// Context returns the span's propagation context (for header or binary
// injection into an outbound hop). Zero on nil.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.rec.Trace, Span: s.rec.ID, Sampled: true}
}

// TraceID returns the span's trace ID (zero on nil) — for slow-request log
// lines that cross-reference /debug/traces.
func (s *Span) TraceID() TraceID {
	if s == nil {
		return 0
	}
	return s.rec.Trace
}

// End finishes the span. Ending the trace's local root publishes the whole
// bundle to the ring buffer and the flight recorder. A second End on any
// span is ignored, as is a child ending after its root already published.
func (s *Span) End() {
	if s == nil {
		return
	}
	dur := s.tr.cfg.Now().Sub(s.rec.Start)
	g := s.grp
	g.mu.Lock()
	if s.done || g.ended {
		g.mu.Unlock()
		return
	}
	s.done = true
	s.rec.Dur = dur
	g.spans = append(g.spans, s.rec)
	if s != g.root {
		g.mu.Unlock()
		return
	}
	g.ended = true
	spans := g.spans
	g.mu.Unlock()
	s.tr.publish(s.rec, spans)
}

// publish lands a finished trace bundle in the ring and flight recorder.
func (t *Tracer) publish(root SpanRecord, spans []SpanRecord) {
	t.spans.Add(uint64(len(spans)))
	t.dropped.Add(t.ring.push(spans))
	if t.flight != nil {
		t.flight.record(root, spans)
	}
}

// Ingest publishes externally-produced span records — the coordinator calls
// it with the bundles trainer workers ship over frameSpans, so a distributed
// run's per-worker spans are inspectable from the coordinator's
// /debug/traces. No-op on a nil tracer.
func (t *Tracer) Ingest(spans []SpanRecord) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.spans.Add(uint64(len(spans)))
	t.dropped.Add(t.ring.push(spans))
}

// Snapshot returns the ring buffer's finished spans, oldest first.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	return t.ring.snapshot()
}

// SpanCount reports (recorded, dropped) span totals.
func (t *Tracer) SpanCount() (recorded, dropped uint64) {
	if t == nil {
		return 0, 0
	}
	return t.spans.Load(), t.dropped.Load()
}

// Register adds the tracer's counters to a metrics registry:
// als_trace_spans_total (spans recorded) and als_trace_spans_dropped_total
// (spans evicted from the ring buffer before being scraped).
func (t *Tracer) Register(reg *obs.Registry) {
	if t == nil || reg == nil {
		return
	}
	reg.Func("als_trace_spans_total", "Finished trace spans recorded.",
		obs.Counter, nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(t.spans.Load())}}
		})
	reg.Func("als_trace_spans_dropped_total",
		"Trace spans evicted from the in-memory ring buffer.",
		obs.Counter, nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(t.dropped.Load())}}
		})
}
