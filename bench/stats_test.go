package main

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5}, {-1, 1}, {2, 5},
	} {
		if got := percentile(vals, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", vals, c.p, got, c.want)
		}
	}
	if vals[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single value: got %g", got)
	}
}

func TestBest(t *testing.T) {
	vals := []float64{3, 1.5, 2}
	if got := best(vals, true); got != 1.5 {
		t.Errorf("best lower = %g, want 1.5", got)
	}
	if got := best(vals, false); got != 3 {
		t.Errorf("best higher = %g, want 3", got)
	}
	if !math.IsNaN(best(nil, true)) {
		t.Error("best of nothing should be NaN")
	}
}

// Python: statistics.quantiles([...], n=4) gives these cut points.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 3}, 1, 10},
		{[]float64{2, 4}, 1.5, 4.5}, // the exclusive method extrapolates on tiny samples
		{[]float64{4.49, 5.59, 4.6, 4.7, 5.5}, 4.545, 5.545},
	} {
		q1, q3 := quartiles(c.vals)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.vals, q1, q3, c.q1, c.q3)
		}
	}
	iqr, rng := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if math.Abs(iqr-1) > 1e-9 || math.Abs(rng-9/5.5) > 1e-9 {
		t.Errorf("spread = %g, %g", iqr, rng)
	}
}

func TestFirstTrue(t *testing.T) {
	for first := 1; first <= 8; first++ { // first == 8: never true on [1,7]
		calls := 0
		got, err := firstTrue(1, 7, func(i int) (bool, error) {
			calls++
			return i >= first, nil
		})
		if err != nil || got != first {
			t.Errorf("firstTrue with threshold %d = %d, %v", first, got, err)
		}
		if calls > 3 {
			t.Errorf("threshold %d took %d probes, want at most 3 for 7 candidates", first, calls)
		}
	}
	boom := errors.New("boom")
	if _, err := firstTrue(1, 7, func(int) (bool, error) { return false, boom }); !errors.Is(err, boom) {
		t.Errorf("error not passed through: %v", err)
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and a ')' inside, as the kernel prints it.
	line := "4242 (als serve) x) S 1 4200 4200 0 -1 4194560 1234 0 0 0 150 50 0 0 20 0 5 0 123456 1000000 2000 18446744073709551615"
	st, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if st.pgrp != 4200 {
		t.Errorf("pgrp = %d, want 4200", st.pgrp)
	}
	if want := 2.0; st.cpuSeconds != want {
		t.Errorf("cpu = %g s, want %g (150+50 ticks)", st.cpuSeconds, want)
	}
	for _, bad := range []string{"", "1 (x", "1 (x) S 1 2", "1 (x) S 1 notanumber 3 4 5 6 7 8 9 10 11 12 13"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) accepted", bad)
		}
	}
	// And the real thing: this process, in its own or its parent's group.
	self, err := readProcStat(1)
	if err != nil || self.pgrp < 0 {
		t.Errorf("reading /proc/1/stat: %+v, %v", self, err)
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\talsserve\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\nThreads:\t5\n"
	if kb, ok := parseStatusKB(status, "VmRSS"); !ok || kb != 102400 {
		t.Errorf("VmRSS = %g, %v", kb, ok)
	}
	if kb, ok := parseStatusKB(status, "VmHWM"); !ok || kb != 204800 {
		t.Errorf("VmHWM = %g, %v", kb, ok)
	}
	if _, ok := parseStatusKB(status, "VmSwap"); ok {
		t.Error("found a key that is not there")
	}
}

func TestSegmentOf(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	bounds := []time.Duration{ms(100), ms(200), ms(305), ms(400)}
	for _, c := range []struct {
		at   time.Duration
		want int
	}{{ms(0), -1}, {ms(99), -1}, {ms(100), 0}, {ms(199), 0}, {ms(200), 1}, {ms(304), 1}, {ms(305), 2}, {ms(399), 2}, {ms(400), -1}} {
		if got := segmentOf(bounds, c.at); got != c.want {
			t.Errorf("segmentOf(%v) = %d, want %d", c.at, got, c.want)
		}
	}
}

// A segment without a hot-swap must not be reduced over, however good it is.
func TestSegmentsWithoutSwapAreDropped(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	bounds := []time.Duration{ms(0), ms(1000), ms(2000), ms(3000)}
	cpuAt := []float64{0, 0.5, 0.6, 1.2}
	cl := &client{}
	for i := 0; i < 30; i++ { // 5 OK in segment 0, 20 in segment 1, 5 in segment 2
		seg := map[bool]int{true: 1}[i >= 5 && i < 25]
		if i >= 25 {
			seg = 2
		}
		end := ms(seg*1000 + 10 + i)
		cl.requests = append(cl.requests, request{start: end - ms(2), end: end, ok: true})
	}
	cl.requests = append(cl.requests, request{start: ms(1500), end: ms(1502), ok: false}) // not counted
	segs := bucketSegments(bounds, cpuAt, []*client{cl})
	if len(segs) != 3 || len(segs[0].latMs) != 5 || len(segs[1].latMs) != 20 || len(segs[2].latMs) != 5 {
		t.Fatalf("bucketing: %+v", segs)
	}
	if segs[1].seconds != 1 || math.Abs(segs[1].cpuSeconds-0.1) > 1e-12 {
		t.Errorf("segment 1 spans %g s and %g CPU s", segs[1].seconds, segs[1].cpuSeconds)
	}
	kept := keepSegments(segs, []bool{true, false, true})
	if len(kept) != 2 || kept[0].index != 0 || kept[1].index != 2 {
		t.Errorf("kept %+v, want segments 0 and 2", kept)
	}
}

func TestFastestStretches(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	a := &trainJob{visible: map[int]time.Duration{1: ms(1000), 2: ms(1500), 3: ms(2500)}}
	b := &trainJob{visible: map[int]time.Duration{1: ms(1400), 2: ms(1800), 3: ms(2300), 4: ms(9000)}}
	sa, oka := a.stretches(3)
	sb, okb := b.stretches(3)
	if !oka || !okb || len(sa) != 3 || sa[1] != 0.5 || sb[2] != 0.5 {
		t.Fatalf("stretches: %v %v, %v %v", sa, oka, sb, okb)
	}
	// Launch->1 from a, 1->2 from b, 2->3 from b: faster than either job.
	if got := fastestStretches([][]float64{sa, sb}); math.Abs(got-(1.0+0.4+0.5)) > 1e-12 {
		t.Errorf("fastest stretches add up to %g, want 1.9", got)
	}
	if _, ok := a.stretches(4); ok {
		t.Error("a job that never showed checkpoint 4 has no stretch to it")
	}
}

func TestSpeedCorrection(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	sp := &speedometer{samples: []speedSample{
		{at(0), 0.008}, {at(250), 0.009}, {at(500), 0.010}, {at(750), 0.012}, {at(1000), 0.020},
	}}
	// Two spans: samples at 250, 500 and 1000 ms fall inside.
	if got := sp.costDuring(span{at(200), at(600)}, span{at(900), at(1100)}); got != 0.010 {
		t.Errorf("median cost inside the spans = %g, want 0.010", got)
	}
	// A span too short to hold a sample falls back on the whole run.
	if got := sp.costDuring(span{at(10), at(20)}); got != 0.010 {
		t.Errorf("fallback cost = %g, want the run's median 0.010", got)
	}
	if got := atNominal(2 * nominalCost); got != 0.5 {
		t.Errorf("a kernel at twice the nominal cost scales times by %g, want 0.5", got)
	}
	if got := atNominal((&speedometer{}).costDuring()); got != 1 {
		t.Errorf("no sample at all scales by %g, want 1", got)
	}
}

func TestSpeedometerSamples(t *testing.T) {
	sp := startSpeedometer()
	time.Sleep(speedInterval + speedInterval/2)
	sp.stopAndWait()
	if len(sp.samples) < 2 {
		t.Fatalf("%d samples in one and a half intervals", len(sp.samples))
	}
	for _, s := range sp.samples {
		if !(s.cost > 0 && s.cost < 1) {
			t.Errorf("kernel cost %g s", s.cost)
		}
	}
}

func TestSumSeries(t *testing.T) {
	exposition := `# HELP als_shard_retries_total Fan-out legs retried.
# TYPE als_shard_retries_total counter
als_shard_retries_total{shard="0"} 2
als_shard_retries_total{shard="1"} 3
als_shard_retries_total_other 100
als_shard_partial_total 1
`
	if got := sumSeries(exposition, "als_shard_retries_total"); got != 5 {
		t.Errorf("retries = %g, want 5", got)
	}
	if got := sumSeries(exposition, "als_shard_partial_total"); got != 1 {
		t.Errorf("partial = %g, want 1", got)
	}
	if got := sumSeries(exposition, "als_absent"); got != 0 {
		t.Errorf("absent = %g, want 0", got)
	}
}

func TestCompareOutputs(t *testing.T) {
	man := &manifest{EndToEnd: []metricSpec{
		{Name: "train_to_target_s", Unit: "s", Better: "lower", Bound: 0.1},
		{Name: "serve_rps", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	mk := func(train, rps float64, failed int) *output {
		return &output{Workloads: map[string]*result{"w": {
			Correct: failed == 0, Attempted: 10, Failed: failed,
			Metrics: map[string]metric{"train_to_target_s": {train, "s"}, "serve_rps": {rps, "1/s"}},
		}}}
	}
	base := mk(4, 1000, 0)
	for _, c := range []struct {
		name string
		b    *output
		code int
		want string
	}{
		{"within bounds", mk(4.3, 950, 0), 0, "ok"},
		{"better both ways", mk(3, 2000, 0), 0, "ok"},
		{"time past bound", mk(4.5, 1000, 0), 1, "WORSE PAST BOUND"},
		{"rate past bound", mk(4, 880, 0), 1, "WORSE PAST BOUND"},
		{"failed operations", mk(4, 1000, 1), 1, "FAILED operations in the second"},
		{"workload missing", &output{Workloads: map[string]*result{}}, 1, "MISSING from the second"},
	} {
		var buf bytes.Buffer
		if code := compareOutputs(&buf, man, base, c.b); code != c.code || !strings.Contains(buf.String(), c.want) {
			t.Errorf("%s: exit %d (want %d), output:\n%s", c.name, code, c.code, buf.String())
		}
	}
	var buf bytes.Buffer
	if code := compareOutputs(&buf, man, mk(4, 1000, 1), base); code != 1 || !strings.Contains(buf.String(), "FAILED operations in the first") {
		t.Errorf("failed first file: exit %d, output:\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compareOutputs(&buf, man, &output{Workloads: map[string]*result{}}, base); code != 1 || !strings.Contains(buf.String(), "MISSING from the first") {
		t.Errorf("workload only in the second file: exit %d, output:\n%s", code, buf.String())
	}
	if d := worsening(man.EndToEnd[1], 1000, 900); math.Abs(d-0.1) > 1e-12 {
		t.Errorf("a rate falling 10%% is %g worse, want 0.1", d)
	}
}
