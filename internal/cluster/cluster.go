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
// shared switch. The arithmetic is real (factors match the single-node
// solver bit-for-bit), so the package doubles as a correct distributed ALS
// implementation with a simulated clock.
package cluster

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/host"
	"repro/internal/kernels"
	"repro/internal/linalg"
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
	Lambda     float32
	Iterations int
	Seed       int64
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

// Result is a simulated distributed training run.
type Result struct {
	X, Y *linalg.Dense
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

// Train runs distributed ALS. Factors are identical to a single-node run.
func Train(mx *sparse.Matrix, cfg Config) (*Result, error) {
	cfg.setDefaults()
	if mx.NNZ() == 0 {
		return nil, fmt.Errorf("cluster: empty rating matrix")
	}
	m, n := mx.Rows(), mx.Cols()
	x := linalg.NewDense(m, cfg.K)
	y := host.InitialY(n, cfg.K, cfg.Seed)
	rt := mx.RT()

	res := &Result{X: x, Y: y}
	for it := 0; it < cfg.Iterations; it++ {
		if err := halfIteration(mx.R, y, x, cfg, res); err != nil {
			return nil, fmt.Errorf("cluster: iteration %d (X): %w", it+1, err)
		}
		if err := halfIteration(rt, x, y, cfg, res); err != nil {
			return nil, fmt.Errorf("cluster: iteration %d (Y): %w", it+1, err)
		}
	}
	return res, nil
}

// halfIteration updates `out` from `fixed` over the rows of r across the
// nodes, accounting compute and communication.
func halfIteration(r *sparse.CSR, fixed, out *linalg.Dense, cfg Config, res *Result) error {
	nodes := cfg.Nodes
	bytesPerRow := int64(cfg.K)*4 + 8 // factor row + routing key
	// Bulk-synchronous phases: replicate, compute, exchange. Each phase's
	// time is the slowest node's (transfers overlap across NICs; compute
	// overlaps across nodes).
	var computeMax, netMax float64

	for node := 0; node < nodes; node++ {
		lo := node * r.NumRows / nodes
		hi := (node + 1) * r.NumRows / nodes
		if lo == hi {
			continue
		}
		// Partial replication: the distinct fixed rows this partition
		// references must be shipped to the node. A single node holds all
		// data locally and pays nothing.
		if nodes > 1 {
			needed := distinctCols(r, lo, hi)
			repl := int64(needed) * bytesPerRow
			res.ReplicationBytes += repl
			net := float64(repl)/(cfg.Network.GbitPerSec*1e9/8) + cfg.Network.LatencySec
			// Updated shard flows back.
			net += float64(int64(hi-lo)*bytesPerRow)/(cfg.Network.GbitPerSec*1e9/8) + cfg.Network.LatencySec
			if net > netMax {
				netMax = net
			}
		}

		// Node-local compute via the per-node device model.
		view := shardView(r, lo, hi)
		shardOut := linalg.NewDenseFrom(hi-lo, cfg.K, out.Data[lo*cfg.K:hi*cfg.K])
		rep, err := kernels.UpdateSide(view, fixed, shardOut, kernels.Config{
			Device: cfg.NodeDevice,
			Spec:   kernels.Spec{S1Local: true, S2Local: true},
			K:      cfg.K, Lambda: cfg.Lambda,
		})
		if err != nil {
			return err
		}
		if rep.Seconds > computeMax {
			computeMax = rep.Seconds
		}
	}
	res.ComputeSeconds += computeMax
	res.NetworkSeconds += netMax
	return nil
}

// AllGatherBytes predicts the coordinator-side wire traffic of the real
// data-parallel trainer (internal/shard): a star all-gather in which each
// of `workers` processes sends its factor shard up and receives the full
// side back, for both halves of every iteration — (workers+1)·(m+n)·k·4
// payload bytes per iteration. Each factor frame adds a 26-byte wire
// header (length prefix, kind byte, iteration/range descriptor); the
// one-time hello and config frames are a few hundred bytes and ignored.
// The cross-validation test in internal/shard holds the trainer's measured
// als_dist_broadcast_bytes_total to within a few percent of this figure,
// and checks the simulator's ReplicationBytes stays within 2x of the real
// measurement for matched problem shapes.
func AllGatherBytes(users, items, k, workers, iterations int) int64 {
	const factorFrame = 26 // 8-byte length + kind byte + 17-byte factor header
	rows := int64(users) + int64(items)
	perIter := (int64(workers)+1)*rows*int64(k)*4 + int64(4*workers*factorFrame)
	return int64(iterations) * perIter
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

// shardView builds a zero-copy CSR view of rows [lo, hi).
func shardView(r *sparse.CSR, lo, hi int) *sparse.CSR {
	return r.RowRange(lo, hi)
}
