package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/sparse"
)

// inputs is everything one workload run derives from its seed. The
// programs under test see only ratingsPath.
type inputs struct {
	train, test *sparse.Matrix
	ratingsPath string
	seconds     struct{ generate, split, write float64 }
}

// prepareInputs generates the workload's ratings from the seed, holds out a
// tenth, and writes the training part as the rating file the programs read.
// Each step is a span under ctx's active span, when it has one.
func prepareInputs(ctx context.Context, w workload, seed int64, dir string) (*inputs, error) {
	in := &inputs{ratingsPath: filepath.Join(dir, "ratings.txt")}
	var ds *dataset.Dataset
	in.seconds.generate, _ = timed(ctx, w, "dataset.generate", func() error {
		ds = w.Preset.Generate(seed)
		return nil
	})
	var err error
	in.seconds.split, err = timed(ctx, w, "dataset.split", func() error {
		var err error
		in.train, in.test, err = dataset.Split(ds.Matrix, 0.1, seed+1)
		return err
	})
	if err != nil {
		return nil, err
	}
	in.seconds.write, err = timed(ctx, w, "sparse.write_triples", func() error {
		f, err := os.Create(in.ratingsPath)
		if err != nil {
			return err
		}
		if err := sparse.WriteTriples(f, in.train.R); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	if err != nil {
		return nil, fmt.Errorf("writing %s: %w", in.ratingsPath, err)
	}
	return in, nil
}

// objective is the training objective the workload minimises, evaluated on
// the benchmark's own copy of the training ratings.
func (w workload) objective(in *inputs, x, y *linalg.Dense) float64 {
	x, y = fitRows(x, in.train.Rows()), fitRows(y, in.train.Cols())
	if w.Implicit {
		return metrics.ImplicitLoss(in.train.R, x, y, w.Alpha, w.Lambda)
	}
	return metrics.RegularizedLoss(in.train.R, x, y, w.Lambda, false)
}

// heldOut scores factors on the held-out tenth: RMSE for explicit
// workloads, recall@10 over the first heldOutUsers users for implicit ones.
// ok reports whether the workload's floor holds.
func (w workload) heldOut(in *inputs, x, y *linalg.Dense) (quality float64, ok bool) {
	x, y = fitRows(x, in.train.Rows()), fitRows(y, in.train.Cols())
	if !w.Implicit {
		rmse := metrics.RMSE(in.test.R, x, y)
		return rmse, rmse <= w.RMSECeil
	}
	users := min(heldOutUsers, in.test.Rows())
	_, recall := metrics.PrecisionRecallAtN(in.train.R, in.test.R.RowRange(0, users), x, y, topN, 0)
	return recall, recall >= w.RecallFloor
}

// fitRows pads d with zero rows up to rows. A trainer sizes its factors
// from the largest ID in the rating file, which falls short of the preset's
// dimensions when the last users or items have no training rating; zero
// rows change neither the objective nor a prediction.
func fitRows(d *linalg.Dense, rows int) *linalg.Dense {
	if d.Rows >= rows {
		return d
	}
	p := linalg.NewDense(rows, d.Cols)
	copy(p.Data, d.Data)
	return p
}

// targetSearch finds the first checkpointed iteration of the run in dir
// whose objective is at most TargetRatio times the objective after
// iteration 1. ALS never increases the objective, so the predicate is
// monotone and a binary search touches only a few checkpoints.
type targetSearch struct {
	iteration int     // first iteration at or under the target; Iters+1 if none
	objective float64 // objective at that iteration (NaN if none)
	final     float64 // objective at the last iteration
	quality   float64 // held-out quality at the target iteration
	floorOK   bool
}

func findTarget(w workload, in *inputs, dir string) (targetSearch, error) {
	load := func(it int) (*checkpoint.State, error) {
		return checkpoint.Load(checkpoint.OS, filepath.Join(dir, checkpoint.FileName(it)))
	}
	objs := map[int]float64{}
	objAt := func(it int) (float64, error) {
		if obj, ok := objs[it]; ok {
			return obj, nil
		}
		st, err := load(it)
		if err != nil {
			return 0, err
		}
		objs[it] = w.objective(in, st.X, st.Y)
		return objs[it], nil
	}
	res := targetSearch{objective: math.NaN(), quality: math.NaN()}
	first, err := objAt(1)
	if err != nil {
		return res, err
	}
	if res.final, err = objAt(w.Iters); err != nil {
		return res, err
	}
	res.iteration, err = firstTrue(1, w.Iters, func(it int) (bool, error) {
		obj, err := objAt(it)
		return obj <= w.TargetRatio*first, err
	})
	if err != nil || res.iteration > w.Iters {
		return res, err
	}
	res.objective = objs[res.iteration]
	st, err := load(res.iteration)
	if err != nil {
		return res, err
	}
	res.quality, res.floorOK = w.heldOut(in, st.X, st.Y)
	return res, nil
}

// foldInRequest draws one cold-start user's ratings: distinct items,
// half-star values inside the preset's range.
func foldInRequest(rng *rand.Rand, items int, p dataset.Preset) ([]int32, []float32) {
	n := min(foldInItems, items)
	its := make([]int32, 0, n)
	seen := make(map[int32]bool, n)
	for len(its) < n {
		it := int32(rng.Intn(items))
		if !seen[it] {
			seen[it] = true
			its = append(its, it)
		}
	}
	steps := int((p.MaxVal-p.MinVal)*2) + 1
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = p.MinVal + float32(rng.Intn(steps))/2
	}
	return its, vals
}
