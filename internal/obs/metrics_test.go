package obs

import (
	"strings"
	"testing"

	"repro/internal/e2e"
)

// buildTestRegistry covers every renderer feature the golden test pins:
// multi-label counters with escaping-hostile values, a histogram whose
// buckets must render cumulatively with an explicit +Inf, a negative
// gauge, and a collector-backed info family.
func buildTestRegistry() *Registry {
	reg := NewRegistry()
	req := reg.Counter("test_requests_total", "Requests.", "endpoint", "code")
	req.With("search", "200").Add(2)
	req.With("we\"ird\\\n", "500").Inc()
	lat := reg.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1})
	for _, v := range []float64{0.0625, 0.25, 0.5, 5} {
		lat.With().Observe(v)
	}
	reg.Gauge("test_temp", "Temperature.").Set(-2.5)
	reg.Func("test_info", "Info.", Gauge, []string{"version"}, func() []Sample {
		return []Sample{{Labels: []string{"v1"}, Value: 1}}
	})
	return reg
}

// TestWritePrometheusGolden pins the exposition output byte for byte:
// family ordering, HELP/TYPE lines, label escaping (quote, backslash,
// newline), cumulative histogram buckets, the +Inf bucket, and _sum/_count.
func TestWritePrometheusGolden(t *testing.T) {
	const golden = `# HELP test_info Info.
# TYPE test_info gauge
test_info{version="v1"} 1
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1"} 1
test_latency_seconds_bucket{le="1"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 5.8125
test_latency_seconds_count 4
# HELP test_requests_total Requests.
# TYPE test_requests_total counter
test_requests_total{endpoint="search",code="200"} 2
test_requests_total{endpoint="we\"ird\\\n",code="500"} 1
# HELP test_temp Temperature.
# TYPE test_temp gauge
test_temp -2.5
`
	var b strings.Builder
	if err := buildTestRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != golden {
		t.Errorf("rendered exposition differs from golden.\ngot:\n%s\nwant:\n%s", b.String(), golden)
	}
}

func TestRenderedExpositionValidates(t *testing.T) {
	var b strings.Builder
	if err := buildTestRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	n, err := e2e.ValidateExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("own output does not validate: %v", err)
	}
	if want := 9; n != want {
		t.Errorf("validated %d samples, want %d", n, want)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"bad metric name": "9bad_name 1\n",
		"bad value":       "ok_name notafloat\n",
		"bad escape":      "m{l=\"a\\q\"} 1\n",
		"unterminated":    "m{l=\"a} 1\n",
		"unknown kind":    "# TYPE m weird\nm 1\n",
		"duplicate TYPE":  "# TYPE m counter\n# TYPE m counter\nm 1\n",
		"not contiguous":  "a 1\nb 2\na 3\n",
		"missing +Inf":    "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"not cumulative":  "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"count mismatch":  "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",
		"missing sum":     "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n",
	}
	for name, text := range cases {
		if _, err := e2e.ValidateExposition(strings.NewReader(text)); err == nil {
			t.Errorf("%s: validated, want error:\n%s", name, text)
		}
	}
}

func TestValidateExpositionAcceptsLooseButLegal(t *testing.T) {
	text := "# a free-form comment\n" +
		"untyped_no_type_line 4.25\n" +
		"with_ts{a=\"b\"} 1 1700000000\n" +
		"inf_value +Inf\n" +
		"nan_value NaN\n"
	n, err := e2e.ValidateExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("legal exposition rejected: %v", err)
	}
	if n != 4 {
		t.Errorf("got %d samples, want 4", n)
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	defer func() {
		if recover() == nil {
			t.Error("negative counter Add did not panic")
		}
	}()
	c.With().Add(-1)
}

func TestConflictingRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", "", "a")
	// Same name, same shape: allowed, returns the same family.
	reg.Counter("m", "", "a").With("x").Inc()
	defer func() {
		if recover() == nil {
			t.Error("conflicting re-registration did not panic")
		}
	}()
	reg.Gauge("m", "")
}

func TestEmptyFamiliesAreOmitted(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("never_used_total", "Unused.", "l")
	reg.Func("absent", "Absent.", Gauge, nil, func() []Sample { return nil })
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "" {
		t.Errorf("empty registry rendered %q, want nothing", b.String())
	}
}
