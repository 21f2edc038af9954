package cluster

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/linalg"
	"repro/internal/sparse"
)

func clusterMatrix(t testing.TB) *sparse.Matrix {
	t.Helper()
	return dataset.Netflix.ScaledForBench(0.002).Generate(41).Matrix
}

// TestDistributedMatchesSingleNode: partitioning must not change the math.
func TestDistributedMatchesSingleNode(t *testing.T) {
	mx := clusterMatrix(t)
	single, err := kernels.Train(mx, kernels.Config{
		Device: device.XeonE52670(), Spec: kernels.Spec{S1Local: true, S2Local: true},
		K: 10, Lambda: 0.1, Iterations: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{1, 3, 8} {
		res, err := Train(mx, Config{Nodes: nodes, K: 10, Lambda: 0.1, Iterations: 2, Seed: 7})
		if err != nil {
			t.Fatalf("%d nodes: %v", nodes, err)
		}
		if d := linalg.MaxAbsDiff(single.X, res.X); d != 0 {
			t.Fatalf("%d nodes: X differs by %g", nodes, d)
		}
		if d := linalg.MaxAbsDiff(single.Y, res.Y); d != 0 {
			t.Fatalf("%d nodes: Y differs by %g", nodes, d)
		}
		// The cost pass alone reports the clock and traffic of the run.
		est, err := Estimate(mx, Config{Nodes: nodes, K: 10, Lambda: 0.1, Iterations: 2, Seed: 7})
		if err != nil {
			t.Fatalf("%d nodes: %v", nodes, err)
		}
		if est.ComputeSeconds != res.ComputeSeconds || est.NetworkSeconds != res.NetworkSeconds ||
			est.ReplicationBytes != res.ReplicationBytes {
			t.Fatalf("%d nodes: Estimate %+v != Train's clock (%g, %g, %d bytes)",
				nodes, est, res.ComputeSeconds, res.NetworkSeconds, res.ReplicationBytes)
		}
	}
}

// TestReplicationTrafficGrows: the related-work claim — partial replication
// ships (nearly) the whole fixed factor to every node, so traffic grows
// with the node count.
func TestReplicationTrafficGrows(t *testing.T) {
	mx := clusterMatrix(t)
	run := func(nodes int) *Result {
		res, err := Estimate(mx, Config{Nodes: nodes, K: 10, Lambda: 0.1, Iterations: 1, Seed: 7})
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
	slow, err := Estimate(mx, Config{Nodes: 4, Network: GigE(), K: 64, Lambda: 0.1, Iterations: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Estimate(mx, Config{Nodes: 4, Network: TenGbE(), K: 64, Lambda: 0.1, Iterations: 1, Seed: 7})
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
	res, err := Estimate(mx, Config{Nodes: 8, Network: GigE(), K: 64, Lambda: 0.1, Iterations: 5, Seed: 7})
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

// TestBorrowedPoolsAreClosed: every simulator-side trainer borrows a worker
// pool from internal/host for the length of one run and gives it back on
// every return path, the failing one included.
func TestBorrowedPoolsAreClosed(t *testing.T) {
	mx := dataset.Netflix.ScaledForBench(0.001).Generate(41).Matrix
	kcfg := kernels.Config{Device: device.K20c(), K: 6, Lambda: 0.1, Iterations: 1, Seed: 7}
	// A NaN rating poisons its row's factors in the X half and, through
	// them, a Gram matrix of the Y half: neither Cholesky nor LDLᵀ accepts it.
	coo := sparse.NewCOO(4, 4)
	for u := 0; u < 4; u++ {
		coo.Append(u, u, 3)
		coo.Append(u, (u+1)%4, float32(math.NaN()))
	}
	poisoned, err := sparse.NewMatrix(coo)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if _, err := kernels.Train(mx, kcfg); err != nil {
		t.Fatal(err)
	}
	if _, err := kernels.TrainMulti(mx, kcfg, []*device.Device{device.K20c(), device.K20c()}); err != nil {
		t.Fatal(err)
	}
	if _, err := Train(mx, Config{Nodes: 3, K: 6, Lambda: 0.1, Iterations: 1, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := kernels.Train(poisoned, kcfg); err == nil {
		t.Fatal("a NaN rating trained without an error")
	}
	if _, err := Train(poisoned, Config{Nodes: 2, K: 6, Lambda: 0.1, Iterations: 1, Seed: 7}); err == nil {
		t.Fatal("a NaN rating trained on the cluster without an error")
	}
	// A worker's exit trails its pool's Close by a few instructions.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d after: a borrowed pool is still running", before, runtime.NumGoroutine())
		}
	}
}

func TestEmptyRejected(t *testing.T) {
	coo := sparse.NewCOO(2, 2)
	mx, err := sparse.NewMatrix(coo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(mx, Config{Nodes: 2}); err == nil {
		t.Fatal("accepted empty matrix")
	}
}
