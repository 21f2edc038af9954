package experiments

import (
	"fmt"

	"repro/internal/cluster"
)

// Cluster is an extension experiment quantifying the related-work claim the
// paper's single-node design leans on (Sec. VI: distributing the matrix
// "results in heavy cross-node traffic"): distributed ALS with Spark-style
// partial replication across commodity nodes, sweeping the node count and
// interconnect. Row updates are independent, so partitioning would leave
// every factor bit-identical to single-node training; only the simulated
// clock changes, and the clock is all this table reads.
func Cluster(s Settings) (*Table, error) {
	t := &Table{
		ID: "cluster", Title: "Distributed ALS (partial replication) on Netflix",
		Caption: "extension of Sec. VI: per-iteration factor re-shipping makes scaling communication-bound on commodity networks",
		Header:  []string{"nodes", "network", "compute [s]", "network [s]", "total [s]", "net share"},
	}
	ntfx := Datasets(s)[1]
	for _, net := range []struct {
		name string
		n    cluster.Network
	}{{"GigE", cluster.GigE()}, {"10GbE", cluster.TenGbE()}} {
		for _, nodes := range []int{1, 2, 4, 8} {
			res, err := cluster.Estimate(ntfx.Matrix, cluster.Config{
				Nodes: nodes, Network: net.n,
				K: s.K, Iterations: s.Iterations,
			})
			if err != nil {
				return nil, fmt.Errorf("cluster %d nodes on %s: %w", nodes, net.name, err)
			}
			t.AddRow(fmt.Sprint(nodes), net.name,
				secs(res.ComputeSeconds), secs(res.NetworkSeconds), secs(res.Seconds()),
				fmt.Sprintf("%.0f%%", res.NetworkSeconds/res.Seconds()*100))
		}
	}
	return t, nil
}
