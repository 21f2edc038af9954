package main

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/host"
	"repro/internal/quant"
)

// workload is one set of inputs and one way of driving the pipeline:
// ratings -> alstrain (checkpointing) -> alsserve -watch -> requests.
type workload struct {
	Name string

	Preset dataset.Preset // the ratings generated from the run's seed

	// Training, as alstrain flags.
	K        int
	Lambda   float64
	Iters    int
	Implicit bool
	Alpha    float64
	Solver   host.Solver
	CGIters  int
	// Precision is both -checkpoint-precision and the serving -precision:
	// the file the trainer writes is the file the fleet scores from.
	Precision quant.Precision
	// DistWorkers > 0 trains with `alstrain -workers N -threads 1`;
	// 0 trains in one process on every core the children get.
	DistWorkers int

	// Serving.
	Shards      int     // 1: one alsserve; >1: that many -shard i/N behind alsfront
	Cache       bool    // response cache on (default size) or off
	FoldInShare float64 // share of requests that are POST /v1/foldin
	Republish   bool    // hot-swap at the start of every measured segment

	// RecorderTax makes the traced run train once more with the
	// observability recorder attached (obs.recorder_tax_pct).
	RecorderTax bool

	// TargetRatio states the training goal: the run has reached its target
	// at the first iteration whose training objective is at most
	// TargetRatio times the objective after iteration 1 of the same run.
	// The ratio (not an absolute loss) is fixed because the ratings change
	// with the seed while the shape of the convergence curve does not; see
	// README.md for the calibration.
	TargetRatio float64
	// Held-out floor at the target checkpoint: an RMSE ceiling for explicit
	// runs, a recall@10 floor (first heldOutUsers users) for implicit ones.
	RMSECeil    float64
	RecallFloor float64
}

const (
	heldOutUsers = 300 // users the implicit recall@10 floor is evaluated on
	foldInItems  = 20  // ratings in one fold-in request
	topN         = 10  // items per recommendation
	zipfSkew     = 0.85
)

// workloads are the two traffic mixes of the benchmark: one bound by its
// kernels on a single server, one bound by everything around them on a
// fleet. Sizes are chosen so that one full training job runs about 5 s on
// the 2-core reference box and a whole run stays under a minute.
var workloads = []workload{
	// Implicit k=64 with CG and i8 checkpoints on a 50k-item catalog:
	// training is solve-bound (shared Gram + per-row CG) and a request is a
	// 3.2M-MAC quantized scan, so kernels dominate and fixed request cost is
	// small — the bypass for request-path work, the target for scan and solver
	// work.
	{
		Name: "catalog-implicit-k64-i8",
		Preset: dataset.Preset{Name: "CATALOG", Long: "catalog-heavy synthetic", Users: 5000, Items: 50000,
			NNZ: 800000, MinVal: 0.5, MaxVal: 5, UserSkew: 0.82, ItemSkew: 0.78},
		K: 64, Lambda: 0.1, Iters: 4,
		Implicit: true, Alpha: 5, Solver: host.SolverCG, CGIters: 3,
		Precision:   quant.I8,
		Shards:      1,
		RecorderTax: true,
		TargetRatio: 0.8621, RecallFloor: 0.02,
	},
	// 2 forked training workers, 2 shards behind alsfront with the response
	// cache on, 15 % fold-in writes and a hot-swap in every measured segment:
	// the only mix that exercises the BSP exchange, the scatter-gather merge,
	// cache purges and the watcher, and one that writes and invalidates
	// beside its reads.
	{
		Name:   "fleet2-mixed-k32",
		Preset: dataset.Movielens.ScaledForBench(0.2),
		K:      32, Lambda: 0.1, Iters: 6,
		DistWorkers: 2,
		Shards:      2, Cache: true, FoldInShare: 0.15, Republish: true,
		TargetRatio: 0.591, RMSECeil: 0.62,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// toy shrinks a workload to smoke-test size: same code paths, same flags,
// a fraction of the ratings. The target and the floors are calibrated for
// the full size, so the toy only asks for any progress after iteration 1.
func (w workload) toy() workload {
	p := w.Preset
	p.Users = max(200, p.Users/20)
	p.Items = max(200, p.Items/20)
	p.NNZ = max(4000, p.NNZ/40)
	w.Preset = p
	w.TargetRatio, w.RMSECeil, w.RecallFloor = 0.999, math.Inf(1), 0
	return w
}

// trainArgs are the alstrain flags of one training job of iters iterations.
func (w workload) trainArgs(ratings, ckptDir string, seed int64, iters int) []string {
	args := []string{
		"-input", ratings, "-one-based=false",
		"-k", strconv.Itoa(w.K), "-lambda", fmtFloat(w.Lambda),
		"-iters", strconv.Itoa(iters), "-seed", strconv.FormatInt(seed, 10),
		"-test-frac", "0",
		"-checkpoint-dir", ckptDir, "-checkpoint-every", "1",
		"-checkpoint-keep", strconv.Itoa(iters),
		"-checkpoint-precision", w.Precision.String(),
		"-solver", w.Solver.String(), "-cg-iters", strconv.Itoa(max(w.CGIters, 1)),
	}
	if w.Implicit {
		args = append(args, "-implicit", "-alpha", fmtFloat(w.Alpha))
	}
	if w.DistWorkers > 0 {
		args = append(args, "-workers", strconv.Itoa(w.DistWorkers), "-threads", "1")
	}
	return args
}

// serveArgs are the alsserve flags of shard i (or of the single server).
func (w workload) serveArgs(ratings, watchDir, addr string, shard int) []string {
	args := []string{
		"-watch", watchDir, "-watch-interval", "50ms",
		"-ratings", ratings, "-one-based=false",
		"-precision", w.Precision.String(),
		"-addr", addr,
	}
	if !w.Cache {
		args = append(args, "-cache", "-1")
	}
	if w.Shards > 1 {
		args = append(args, "-shard", fmt.Sprintf("%d/%d", shard, w.Shards))
	}
	return args
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
