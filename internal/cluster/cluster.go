// Package cluster models distributed ALS on a commodity cluster, the
// approach of the paper's related work (GraphLab, Spark MLlib) that its
// single-node accelerator story argues against: "distributing [the] matrix
// on multiple machines ... results in heavy cross-node traffic and pretty
// high network bandwidth" (Sec. VI).
//
// The model follows Spark MLlib's partial-replication scheme: ratings are
// row-partitioned across nodes; before each half-iteration every node
// receives the subset of fixed-factor rows its partition references (the
// "partial replication"), and after it the updated factor shards are
// exchanged. Compute uses the host cost of a multicore worker per node;
// communication pays per-node bandwidth and per-message latency over a
// shared switch. Estimate is the clock, modeled from the sparsity pattern
// alone: row updates are independent, so partitioning moves compute and
// traffic but not a factor. The real distributed trainer is internal/shard.
package cluster

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/sparse"
)

// Network describes the interconnect.
type Network struct {
	GbitPerSec float64 // per-node NIC bandwidth (e.g. 10 for 10GbE)
	LatencySec float64 // per-message latency (switch + stack)
}

// TenGbE is a typical 2016-era cluster interconnect.
func TenGbE() Network { return Network{GbitPerSec: 10, LatencySec: 150e-6} }

// GigE is the commodity interconnect GraphLab-era clusters often had.
func GigE() Network { return Network{GbitPerSec: 1, LatencySec: 200e-6} }

// Config describes one distributed run.
type Config struct {
	Nodes      int
	Network    Network
	NodeDevice *device.Device // per-node compute model; nil = Xeon E5-2670
	K          int
	Iterations int
}

func (c *Config) setDefaults() {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.NodeDevice == nil {
		c.NodeDevice = device.XeonE52670()
	}
	if c.K <= 0 {
		c.K = 10
	}
	if c.Iterations <= 0 {
		c.Iterations = 5
	}
	if c.Network.GbitPerSec <= 0 {
		c.Network = TenGbE()
	}
}

// Result is the clock and traffic of a simulated distributed training run.
type Result struct {
	// ComputeSeconds: summed per-iteration makespans (slowest node).
	ComputeSeconds float64
	// NetworkSeconds: replication + shard-exchange time.
	NetworkSeconds float64
	// ReplicationBytes: total fixed-factor bytes shipped (the related
	// work's "heavy cross-node traffic").
	ReplicationBytes int64
}

// Seconds is the simulated end-to-end time.
func (r *Result) Seconds() float64 { return r.ComputeSeconds + r.NetworkSeconds }

// Estimate is the cost pass of a distributed run: the multi-device model
// with one simulated device per node (compute overlaps across nodes, so the
// slowest partition sets each half's pace) plus this package's network
// model. Network time and replication traffic follow from the sparsity
// pattern, so each half's exchange is tallied once and charged every
// iteration.
func Estimate(mx *sparse.Matrix, cfg Config) (*Result, error) {
	cfg.setDefaults()
	nodes := make([]*device.Device, cfg.Nodes)
	for i := range nodes {
		nodes[i] = cfg.NodeDevice
	}
	// Every node runs the paper's CPU recommendation.
	multi, err := kernels.EstimateMulti(mx, kernels.Config{
		Device: cfg.NodeDevice, Spec: kernels.Spec{S1Local: true, S2Local: true},
		K: cfg.K, Iterations: cfg.Iterations,
	}, nodes)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	res := &Result{ComputeSeconds: multi.ComputeSeconds}
	xNet, xBytes := exchange(mx.R, cfg)
	yNet, yBytes := exchange(mx.RT(), cfg)
	for it := 0; it < cfg.Iterations; it++ {
		res.NetworkSeconds += xNet
		res.NetworkSeconds += yNet
		res.ReplicationBytes += xBytes + yBytes
	}
	return res, nil
}

// exchange accounts one half-iteration's communication when r's rows are
// updated across the nodes: the slowest node's replicate + exchange time
// (transfers overlap across NICs) and the replicated bytes of all nodes.
func exchange(r *sparse.CSR, cfg Config) (seconds float64, replicated int64) {
	nodes := cfg.Nodes
	if nodes == 1 {
		return 0, 0 // a single node holds all data locally and pays nothing
	}
	bytesPerRow := int64(cfg.K)*4 + 8 // factor row + routing key
	for node := 0; node < nodes; node++ {
		lo, hi := sparse.Range(r.NumRows, node, nodes)
		if lo == hi {
			continue
		}
		// Partial replication: the distinct fixed rows this partition
		// references must be shipped to the node.
		repl := int64(distinctCols(r, lo, hi)) * bytesPerRow
		replicated += repl
		net := float64(repl)/(cfg.Network.GbitPerSec*1e9/8) + cfg.Network.LatencySec
		// Updated shard flows back.
		net += float64(int64(hi-lo)*bytesPerRow)/(cfg.Network.GbitPerSec*1e9/8) + cfg.Network.LatencySec
		seconds = max(seconds, net)
	}
	return seconds, replicated
}

// distinctCols counts the distinct column indices referenced by rows
// [lo, hi) — the partial-replication working set.
func distinctCols(r *sparse.CSR, lo, hi int) int {
	seen := make(map[int32]struct{})
	for u := lo; u < hi; u++ {
		cols, _ := r.Row(u)
		for _, c := range cols {
			seen[c] = struct{}{}
		}
	}
	return len(seen)
}
