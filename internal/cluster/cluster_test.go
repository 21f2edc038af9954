package cluster

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/sparse"
)

func clusterMatrix(t testing.TB) *sparse.Matrix {
	t.Helper()
	return dataset.Netflix.ScaledForBench(0.002).Generate(41).Matrix
}

// TestDistributedMatchesSingleNode: a one-node cluster is the single-node
// simulator — the same compute clock, bit for bit, and no network.
func TestDistributedMatchesSingleNode(t *testing.T) {
	mx := clusterMatrix(t)
	single, err := kernels.Estimate(mx, kernels.Config{
		Device: device.XeonE52670(), Spec: kernels.Spec{S1Local: true, S2Local: true},
		K: 10, Iterations: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Estimate(mx, Config{Nodes: 1, K: 10, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.ComputeSeconds != single.Report.Seconds || res.NetworkSeconds != 0 || res.ReplicationBytes != 0 {
		t.Fatalf("1 node: %+v, single node's kernel time %g s", res, single.Report.Seconds)
	}
}

// TestReplicationTrafficGrows: the related-work claim — partial replication
// ships (nearly) the whole fixed factor to every node, so traffic grows
// with the node count.
func TestReplicationTrafficGrows(t *testing.T) {
	mx := clusterMatrix(t)
	run := func(nodes int) *Result {
		res, err := Estimate(mx, Config{Nodes: nodes, K: 10, Iterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r2, r8 := run(2), run(8)
	if !(r8.ReplicationBytes > r2.ReplicationBytes) {
		t.Fatalf("replication did not grow: %d bytes on 8 nodes vs %d on 2",
			r8.ReplicationBytes, r2.ReplicationBytes)
	}
	if !(r8.NetworkSeconds < r2.NetworkSeconds*8) {
		t.Fatalf("per-node overlap missing: %g vs %g", r8.NetworkSeconds, r2.NetworkSeconds)
	}
}

// TestGigEWorseThanTenGbE: the interconnect matters.
func TestGigEWorseThanTenGbE(t *testing.T) {
	mx := clusterMatrix(t)
	// k=64 makes the factor rows large enough that bandwidth (not
	// per-message latency) dominates the network term.
	slow, err := Estimate(mx, Config{Nodes: 4, Network: GigE(), K: 64, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Estimate(mx, Config{Nodes: 4, Network: TenGbE(), K: 64, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !(slow.NetworkSeconds > fast.NetworkSeconds*4) {
		t.Fatalf("GigE (%g) not much slower than 10GbE (%g)", slow.NetworkSeconds, fast.NetworkSeconds)
	}
}

// TestHeavyCrossNodeTraffic: the related-work claim the paper's single-node
// design leans on — every iteration re-ships factor rows, so on a commodity
// interconnect with a non-trivial k the network takes a meaningful share of
// the runtime, and scaling out inflates total traffic super-linearly
// relative to the factor data itself.
func TestHeavyCrossNodeTraffic(t *testing.T) {
	mx := clusterMatrix(t)
	res, err := Estimate(mx, Config{Nodes: 8, Network: GigE(), K: 64, Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	share := res.NetworkSeconds / res.Seconds()
	if share < 0.05 {
		t.Fatalf("network share %.1f%% too small to exercise the claim", share*100)
	}
	// The replicated bytes must exceed the factor matrices themselves many
	// times over (they are re-shipped every half-iteration to many nodes).
	factorBytes := int64((mx.Rows() + mx.Cols()) * 64 * 4)
	if res.ReplicationBytes < 4*factorBytes {
		t.Fatalf("replication %d bytes, factor data %d — traffic not heavy", res.ReplicationBytes, factorBytes)
	}
}

func TestEmptyRejected(t *testing.T) {
	coo := sparse.NewCOO(2, 2)
	mx, err := sparse.NewMatrix(coo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Estimate(mx, Config{Nodes: 2}); err == nil {
		t.Fatal("accepted empty matrix")
	}
}
