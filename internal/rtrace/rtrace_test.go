package rtrace

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/e2e"
	"repro/internal/obs"
)

// fakeClock hands out strictly increasing instants so span durations and
// flight-recorder ordering are deterministic.
type fakeClock struct {
	t time.Time
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(time.Millisecond)
	return c.t
}

func newTestTracer(cfg Config) (*Tracer, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	if cfg.Now == nil {
		cfg.Now = clk.now
	}
	if cfg.Sample == 0 {
		cfg.Sample = 1
	}
	return New(cfg), clk
}

func TestSpanTree(t *testing.T) {
	tr, _ := newTestTracer(Config{Process: "test"})
	ctx, root := tr.StartRequest(context.Background(), "recommend", SpanContext{})
	if root == nil {
		t.Fatal("sampled root is nil")
	}
	cctx, child := StartChild(ctx, "hop")
	if child == nil {
		t.Fatal("child is nil")
	}
	_, grand := StartChild(cctx, "scan")
	grand.SetAttr("precision", "i8")
	grand.End()
	child.End()
	root.SetAttr("code", "200")
	root.End()

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Children publish as they end; root last.
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	rootRec, hop, scan := byName["recommend"], byName["hop"], byName["scan"]
	if rootRec.Trace == 0 || hop.Trace != rootRec.Trace || scan.Trace != rootRec.Trace {
		t.Fatalf("trace IDs differ: %v %v %v", rootRec.Trace, hop.Trace, scan.Trace)
	}
	if rootRec.Parent != 0 {
		t.Errorf("root parent = %v, want 0", rootRec.Parent)
	}
	if hop.Parent != rootRec.ID {
		t.Errorf("hop parent = %v, want root %v", hop.Parent, rootRec.ID)
	}
	if scan.Parent != hop.ID {
		t.Errorf("scan parent = %v, want hop %v", scan.Parent, hop.ID)
	}
	if len(scan.Attrs) != 1 || scan.Attrs[0] != (Attr{"precision", "i8"}) {
		t.Errorf("scan attrs = %v", scan.Attrs)
	}
	// Child envelopes fit inside the root's.
	rootEnd := rootRec.Start.Add(rootRec.Dur)
	for _, s := range []SpanRecord{hop, scan} {
		if s.Start.Before(rootRec.Start) || s.Start.Add(s.Dur).After(rootEnd) {
			t.Errorf("span %q [%v +%v] outside root envelope [%v +%v]",
				s.Name, s.Start, s.Dur, rootRec.Start, rootRec.Dur)
		}
	}
	if rec, dropped := tr.SpanCount(); rec != 3 || dropped != 0 {
		t.Errorf("counts = (%d, %d), want (3, 0)", rec, dropped)
	}
}

func TestSampling(t *testing.T) {
	tr := New(Config{Sample: 0})
	if _, s := tr.StartRequest(context.Background(), "r", SpanContext{}); s != nil {
		t.Error("sample=0 local root was sampled")
	}
	// A sampled remote context overrides local head sampling.
	remote := SpanContext{Trace: 7, Span: 9, Sampled: true}
	if _, s := tr.StartRequest(context.Background(), "r", remote); s == nil {
		t.Error("sampled remote context was not continued")
	} else if s.Context().Trace != 7 {
		t.Errorf("trace = %v, want 7", s.Context().Trace)
	}
	// An unsampled remote context suppresses tracing even at sample=1.
	tr1 := New(Config{Sample: 1})
	unsampled := SpanContext{Trace: 7, Span: 9, Sampled: false}
	if _, s := tr1.StartRequest(context.Background(), "r", unsampled); s != nil {
		t.Error("unsampled remote context was traced")
	}
	// Nil tracer and span are inert.
	var nilTr *Tracer
	ctx, s := nilTr.StartRequest(context.Background(), "r", SpanContext{})
	if s != nil {
		t.Fatal("nil tracer produced a span")
	}
	s.SetAttr("k", "v")
	s.End()
	if _, c := StartChild(ctx, "child"); c != nil {
		t.Error("child of inactive context is non-nil")
	}
}

// TestDisabledTracingAllocs pins the zero-cost contract: with no active
// span, StartChild and the nil-span methods perform no heap allocations.
func TestDisabledTracingAllocs(t *testing.T) {
	ctx := context.Background()
	n := testing.AllocsPerRun(200, func() {
		_, s := StartChild(ctx, "scan")
		s.SetAttr("precision", "i8")
		_ = s.Context()
		s.End()
	})
	if n != 0 {
		t.Errorf("disabled-tracing path allocates %v/op, want 0", n)
	}
	var tr *Tracer
	n = testing.AllocsPerRun(200, func() {
		_, s := tr.StartRequest(ctx, "recommend", SpanContext{})
		s.End()
	})
	if n != 0 {
		t.Errorf("nil-tracer StartRequest allocates %v/op, want 0", n)
	}
}

func TestRingEviction(t *testing.T) {
	tr, _ := newTestTracer(Config{Capacity: 4, Slowest: -1})
	for i := 1; i <= 6; i++ {
		_, s := tr.StartRequest(context.Background(), fmt.Sprintf("r%d", i), SpanContext{})
		s.End()
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	for i, want := range []string{"r3", "r4", "r5", "r6"} {
		if spans[i].Name != want {
			t.Errorf("ring[%d] = %q, want %q (oldest-first order)", i, spans[i].Name, want)
		}
	}
	if rec, dropped := tr.SpanCount(); rec != 6 || dropped != 2 {
		t.Errorf("counts = (%d, %d), want (6, 2)", rec, dropped)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: 0xdeadbeef01020304, Span: 0x0a0b0c0d0e0f1011, Sampled: true}
	h := http.Header{}
	h.Set(TraceparentHeader, traceparent(sc))
	v := h.Get(TraceparentHeader)
	if want := "00-0000000000000000deadbeef01020304-0a0b0c0d0e0f1011-01"; v != want {
		t.Fatalf("traceparent = %q, want %q", v, want)
	}
	if got := Extract(h); got != sc {
		t.Fatalf("traceparent→extract: got %+v, want %+v", got, sc)
	}
	// Unsampled flag round-trips too.
	sc.Sampled = false
	h.Set(TraceparentHeader, traceparent(sc))
	if got := Extract(h); got != sc {
		t.Fatalf("unsampled round trip: got %+v, want %+v", got, sc)
	}
	// Malformed values are rejected, not mis-parsed.
	for _, bad := range []string{
		"", "00", "zz-0000000000000000deadbeef01020304-0a0b0c0d0e0f1011-01",
		"00-0000000000000000deadbeef0102030g-0a0b0c0d0e0f1011-01",
		"00-0000000000000000deadbeef01020304-0a0b0c0d0e0f10-01",
		strings.Repeat("0", 55),
	} {
		if got := ParseTraceparent(bad); got.Valid() {
			t.Errorf("ParseTraceparent(%q) = %+v, want invalid", bad, got)
		}
	}
	// Binary form.
	b := sc.AppendBinary(nil)
	if len(b) != BinaryContextLen {
		t.Fatalf("binary context is %d bytes, want %d", len(b), BinaryContextLen)
	}
	got, err := ContextFromBinary(b)
	if err != nil || got != sc {
		t.Fatalf("binary round trip: got %+v err %v", got, err)
	}
	if _, err := ContextFromBinary(b[:5]); err == nil {
		t.Error("truncated binary context accepted")
	}
}

func TestEncodeDecodeSpans(t *testing.T) {
	in := []SpanRecord{
		{Trace: 1, ID: 2, Parent: 0, Name: "root", Start: time.Unix(100, 250), Dur: 5 * time.Millisecond},
		{Trace: 1, ID: 3, Parent: 2, Name: "iter1/x compute", Start: time.Unix(100, 500),
			Dur: time.Millisecond, Attrs: []Attr{{"worker", "0"}, {"half", "x"}}},
	}
	out, err := DecodeSpans(EncodeSpans(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d spans, want %d", len(out), len(in))
	}
	for i := range in {
		a, b := in[i], out[i]
		if a.Trace != b.Trace || a.ID != b.ID || a.Parent != b.Parent || a.Name != b.Name ||
			!a.Start.Equal(b.Start) || a.Dur != b.Dur || len(a.Attrs) != len(b.Attrs) {
			t.Errorf("span %d: got %+v, want %+v", i, b, a)
		}
		for j := range a.Attrs {
			if a.Attrs[j] != b.Attrs[j] {
				t.Errorf("span %d attr %d: got %+v, want %+v", i, j, b.Attrs[j], a.Attrs[j])
			}
		}
	}
	if _, err := DecodeSpans(EncodeSpans(in)[:20]); err == nil {
		t.Error("truncated span payload accepted")
	}
	if got, err := DecodeSpans(EncodeSpans(nil)); err != nil || len(got) != 0 {
		t.Errorf("empty payload: got %v, %v", got, err)
	}
}

func TestFlightRecorder(t *testing.T) {
	tr, _ := newTestTracer(Config{Slowest: 2})
	// Each request is one fake-clock tick except the marked slow ones,
	// which hold extra child spans (each child costs two ticks).
	mk := func(name string, children int) TraceID {
		ctx, root := tr.StartRequest(context.Background(), name, SpanContext{})
		for c := 0; c < children; c++ {
			_, s := StartChild(ctx, fmt.Sprintf("hop%d", c))
			s.End()
		}
		root.End()
		return root.TraceID()
	}
	mk("recommend", 0)
	slow1 := mk("recommend", 3)
	slow2 := mk("recommend", 5)
	mk("recommend", 1)
	mk("foldin", 0)

	byEp := tr.Slowest()
	rec := byEp["recommend"]
	if len(rec) != 2 {
		t.Fatalf("retained %d recommend traces, want 2", len(rec))
	}
	if rec[0].Trace != slow2 || rec[1].Trace != slow1 {
		t.Errorf("slowest-first order: got %v,%v want %v,%v", rec[0].Trace, rec[1].Trace, slow2, slow1)
	}
	if rec[0].Dur < rec[1].Dur {
		t.Errorf("not sorted by duration: %v < %v", rec[0].Dur, rec[1].Dur)
	}
	if len(rec[0].Spans) != 6 { // 5 hops + root
		t.Errorf("slowest trace carries %d spans, want 6", len(rec[0].Spans))
	}
	if len(byEp["foldin"]) != 1 {
		t.Errorf("foldin retained %d traces, want 1", len(byEp["foldin"]))
	}
}

func TestRegisterExposition(t *testing.T) {
	tr, _ := newTestTracer(Config{})
	reg := obs.NewRegistry()
	tr.Register(reg)
	_, s := tr.StartRequest(context.Background(), "r", SpanContext{})
	s.End()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if _, err := e2e.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	for _, want := range []string{"als_trace_spans_total 1", "als_trace_spans_dropped_total 0"} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// traceparent renders sc as a traceparent header value: what an upstream
// service sends, and ParseTraceparent reads back.
func traceparent(sc SpanContext) string {
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return "00-0000000000000000" + hex16(uint64(sc.Trace)) + "-" + hex16(uint64(sc.Span)) + "-" + flags
}
