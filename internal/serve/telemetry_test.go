package serve

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/e2e"
	"repro/internal/quant"
	"repro/internal/sparse"
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
	// 2×4 and 3×4 float32 factors; the rated set's one row block: 3 row
	// bounds and 2 restart points, no gap bytes.
	tel.SwapRecorded(&Snapshot{Model: linearModel(1, 2, 3, 4), Rated: sparse.NewGaps(singleRating(2, 3, 1))})
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
		`als_snapshot_bytes{part="x"} 32`,
		`als_snapshot_bytes{part="y"} 48`,
		`als_snapshot_bytes{part="qy"} 0`,
		`als_snapshot_bytes{part="screen"} 0`,
		`als_snapshot_bytes{part="rated"} 28`,
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

// TestSnapshotBytesGauge: every swap sets als_snapshot_bytes from the
// snapshot it installed: a float32 one holds Y and its screen, an int8 one
// from a float32 model its ranked codes and Y, a shard its slice's parts.
func TestSnapshotBytesGauge(t *testing.T) {
	m := linearModel(1, 6, 40, 8)
	rated := singleRating(6, 40, 30)
	rep := func(s *Server) *Server {
		r, _ := NewReplica(s, ReplicaConfig{Index: 1, Count: 2})
		r.Swap(m, rated, "v")
		return s
	}
	for name, s := range map[string]*Server{
		"f32":   New(Config{}),
		"i8":    New(Config{}),
		"shard": New(Config{}),
	} {
		if name == "i8" {
			s.SetPrecision(quant.I8)
		}
		if name == "shard" {
			rep(s)
		} else {
			s.Swap(m, rated, "v")
		}
		sn := s.Current()
		out := renderTel(t, s.Telemetry())
		for i, n := range sn.bytes() {
			want := fmt.Sprintf("als_snapshot_bytes{part=%q} %d\n", snapshotParts[i], n)
			if !strings.Contains(out, want) {
				t.Errorf("%s: missing %q", name, want)
			}
		}
		if got := sn.bytes(); got[0] != 4*6*8 || got[4] != sn.Rated.Bytes() || got[4] == 0 ||
			(got[2] == 0) != (name != "i8") || got[1] != 4*8*sn.Items {
			t.Errorf("%s: parts %v for a snapshot of %d items", name, got, sn.Items)
		}
	}
}
