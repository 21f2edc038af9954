package shard

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// TestBroadcastBytesCrossValidation pins the real trainer's measured
// exchange traffic (als_dist_broadcast_bytes_total) against two models of
// it: the closed-form cluster.AllGatherBytes prediction, which must match
// to within a few percent (only the one-time hello/config frames separate
// them: the rating slices shipped at start-up are counted apart, in
// als_dist_data_bytes_total), and the cluster simulator's ReplicationBytes for the same problem
// shape, which models a partial-replication topology instead of a star and
// therefore only has to land within the issue's 2x criterion.
func TestBroadcastBytesCrossValidation(t *testing.T) {
	spec := DataSpec{Preset: "YMR4", Scale: 0.02, Seed: 7}
	mx, err := spec.Load()
	if err != nil {
		t.Fatal(err)
	}
	const workers, iters, k = 2, 3, 8

	reg := obs.NewRegistry()
	_, info, err := Train(mx, TrainerConfig{
		Workers: workers, K: k, Lambda: 0.05, Iterations: iters,
		Seed: 7, Data: spec, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	measured := info.BroadcastBytes
	if measured <= 0 {
		t.Fatalf("measured broadcast bytes = %d, want > 0", measured)
	}

	// The registry counter must report the same measurement.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("als_dist_broadcast_bytes_total %d\n", measured),
		fmt.Sprintf("als_dist_data_bytes_total %d\n", info.DataBytes),
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("exposition lacks %q:\n%s", want, sb.String())
		}
	}

	predicted := cluster.AllGatherBytes(mx.Rows(), mx.Cols(), k, workers, iters)
	if ratio := float64(measured) / float64(predicted); ratio < 1.0 || ratio > 1.02 {
		// Measured includes hello/config frames, so it sits just above the
		// prediction — never below, never more than ~a kilobyte above.
		t.Fatalf("measured %d vs predicted %d bytes (ratio %.4f), want within [1.00, 1.02]",
			measured, predicted, ratio)
	}

	// The simulator ships fixed-factor working sets instead of relaying
	// whole sides through a coordinator; for matched shapes the two totals
	// must agree within 2x or the simulator's traffic constant is wrong.
	sim, err := cluster.Estimate(mx, cluster.Config{
		Nodes: workers, K: k, Lambda: 0.05, Iterations: iters, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sim.ReplicationBytes <= 0 {
		t.Fatalf("simulated replication bytes = %d, want > 0", sim.ReplicationBytes)
	}
	ratio := float64(measured) / float64(sim.ReplicationBytes)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("measured %d bytes vs simulated %d (ratio %.2f), want within 2x — the simulator's per-row traffic constant has drifted from the real exchange",
			measured, sim.ReplicationBytes, ratio)
	}
}
