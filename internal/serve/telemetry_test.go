package serve

import (
	"strings"
	"testing"
	"time"

	"repro/internal/e2e"
)

func renderTel(t *testing.T, tel *Telemetry) string {
	t.Helper()
	var b strings.Builder
	if err := tel.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestTelemetryExpositionValidates: the serving metrics must pass the same
// strict exposition parser the training metrics do.
func TestTelemetryExpositionValidates(t *testing.T) {
	tel := NewTelemetry()
	tel.Observe("recommend", 200, 3*time.Millisecond)
	tel.Observe("recommend", 404, time.Millisecond)
	tel.Shed("recommend")
	tel.SwapRecorded()
	tel.SwapRejected()
	tel.SwapInstalled(time.Unix(1700000000, 0))
	out := renderTel(t, tel)
	if _, err := e2e.ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("telemetry output does not validate: %v\n%s", err, out)
	}
	for _, want := range []string{
		`als_requests_total{endpoint="recommend",code="200"} 1`,
		`als_requests_total{endpoint="recommend",code="404"} 1`,
		`als_request_seconds_count{code="200"} 1`,
		`als_request_seconds_count{code="404"} 1`,
		`als_shed_total{endpoint="recommend"} 1`,
		"als_model_swaps_total 1",
		"als_swap_rejected_total 1",
		"als_inflight_requests 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestCheckpointFreshnessGauges: absent before the first watcher install,
// then last-swap timestamp plus a monotonically growing age.
func TestCheckpointFreshnessGauges(t *testing.T) {
	tel := NewTelemetry()
	out := renderTel(t, tel)
	if strings.Contains(out, "als_checkpoint_age_seconds") ||
		strings.Contains(out, "als_last_swap_timestamp_seconds") {
		t.Fatalf("freshness gauges present before first install:\n%s", out)
	}

	swapAt := time.Unix(1700000000, 0)
	now := swapAt
	tel.now = func() time.Time { return now }
	tel.SwapInstalled(swapAt)

	now = swapAt.Add(90 * time.Second)
	out = renderTel(t, tel)
	if !strings.Contains(out, "als_last_swap_timestamp_seconds 1.7e+09") {
		t.Errorf("missing last-swap timestamp:\n%s", out)
	}
	if !strings.Contains(out, "als_checkpoint_age_seconds 90") {
		t.Errorf("missing 90s checkpoint age:\n%s", out)
	}

	// A fresh install resets the age.
	tel.SwapInstalled(now)
	out = renderTel(t, tel)
	if !strings.Contains(out, "als_checkpoint_age_seconds 0") {
		t.Errorf("age not reset after new install:\n%s", out)
	}
}

// TestSwapRejectedCountRoundTrip: SwapRejected counts into the
// registry-backed counter that the retry and watcher tests read back through
// SwapRejectedCount.
func TestSwapRejectedCountRoundTrip(t *testing.T) {
	tel := NewTelemetry()
	for i := 0; i < 3; i++ {
		tel.SwapRejected()
	}
	if got := tel.SwapRejectedCount(); got != 3 {
		t.Errorf("SwapRejectedCount = %d, want 3", got)
	}
}
