package serve

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/linalg"
	"repro/internal/quant"
	"repro/internal/rtrace"
)

// TestServerTraceSpans drives a traced request through the middleware and
// checks the span tree: an endpoint root continuing the inbound traceparent
// context, with cache-lookup and precision-tagged scan children inside the
// root's time envelope, the scan naming the bindings it ran.
func TestServerTraceSpans(t *testing.T) {
	tr := rtrace.New(rtrace.Config{Sample: 1, Process: "test"})
	s := New(Config{Tracer: tr})
	s.Swap(linearModel(1, 2, 64, 2), nil, "")
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	remote := rtrace.SpanContext{Trace: 0xabc123, Span: 0xdef456, Sampled: true}
	req, err := http.NewRequest("GET", ts.URL+"/v1/recommend?user=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(rtrace.TraceparentHeader, remote.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}

	spans := tr.Snapshot()
	byName := map[string]rtrace.SpanRecord{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	root, ok := byName["recommend"]
	if !ok {
		t.Fatalf("no recommend root span in %d spans", len(spans))
	}
	if root.Trace != remote.Trace {
		t.Errorf("root trace = %v, want remote %v (traceparent not continued)", root.Trace, remote.Trace)
	}
	if root.Parent != remote.Span {
		t.Errorf("root parent = %v, want remote span %v", root.Parent, remote.Span)
	}
	attrs := map[string]string{}
	for _, a := range root.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["code"] != "200" {
		t.Errorf("root code attr = %q", attrs["code"])
	}
	for _, child := range []string{"cache.lookup", "scan"} {
		c, ok := byName[child]
		if !ok {
			t.Errorf("missing %q child span", child)
			continue
		}
		if c.Parent != root.ID {
			t.Errorf("%q parent = %v, want root %v", child, c.Parent, root.ID)
		}
		if c.Start.Before(root.Start) || c.Start.Add(c.Dur).After(root.Start.Add(root.Dur)) {
			t.Errorf("%q outside the root envelope", child)
		}
	}
	scanAttrs := map[string]string{}
	for _, a := range byName["scan"].Attrs {
		scanAttrs[a.Key] = a.Value
	}
	if scanAttrs["precision"] != "f32" {
		t.Errorf("scan precision attr = %q, want f32", scanAttrs["precision"])
	}
	// At f32 the span counts the rows that got an exact score, the rows the
	// screen did not rule out: what als_scan_rows_total{outcome="scored"}
	// added for this request, the rest of the 64 going to "pruned".
	scored, pruned := s.tel.scanRows[quant.F32][0].Value(), s.tel.scanRows[quant.F32][1].Value()
	if want := strconv.Itoa(int(scored)); scanAttrs["rows_scored"] != want || scored+pruned != 64 {
		t.Errorf("scan rows_scored attr = %q, counter %v scored + %v pruned, want %s of 64 rows", scanAttrs["rows_scored"], scored, pruned, want)
	}
	if scanAttrs["kernel"] != linalg.KernelName() {
		t.Errorf("scan kernel attr = %q, want %q", scanAttrs["kernel"], linalg.KernelName())
	}
	// The screen is bound apart from the float kernels: at GOAMD64=v3 it is
	// assembly while Dot8Wide is portable, and without a vector screen the
	// snapshot holds no copy.
	wantScreen := "off"
	if linalg.ScreenVectorized() {
		wantScreen = linalg.ScreenKernelName()
	}
	if scanAttrs["screen"] != wantScreen {
		t.Errorf("scan screen attr = %q, want %q", scanAttrs["screen"], wantScreen)
	}

	// An unsampled inbound context suppresses the whole tree.
	before := len(tr.Snapshot())
	req, _ = http.NewRequest("GET", ts.URL+"/v1/recommend?user=0", nil)
	req.Header.Set(rtrace.TraceparentHeader, rtrace.SpanContext{Trace: 1, Span: 2, Sampled: false}.Traceparent())
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := len(tr.Snapshot()); got != before {
		t.Errorf("unsampled request added %d spans", got-before)
	}
}
