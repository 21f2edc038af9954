// Package solvers implements the two alternative solver families of the
// paper's related-work section, which its conclusion proposes extending the
// technique to: Hogwild-style parallel SGD and CCD++. Implicit-feedback ALS
// is core.Train with Implicit set; this package's tests keep a plain
// reference loop that the host trainer's implicit mode must reproduce.
//
// Both solvers share the factor-matrix conventions of internal/host (X is
// m×k, Y is n×k, row-major float32) so models interoperate with the
// metrics and recommendation helpers.
package solvers

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/host"
	"repro/internal/linalg"
	"repro/internal/sparse"
)

// SGDConfig configures Hogwild-style parallel stochastic gradient descent
// (Recht et al., the lock-free scheme of the paper's related work). Updates
// race benignly across goroutines: conflicting factor writes are rare on
// sparse data and the algorithm tolerates them.
type SGDConfig struct {
	K          int
	Lambda     float32 // L2 regularization per update
	LearnRate  float32 // initial learning rate (default 0.01)
	Decay      float32 // multiplicative per-epoch decay (default 0.9)
	Epochs     int     // passes over the ratings (default 10)
	Workers    int
	Seed       int64
	ClipWeight float32 // gradient clip threshold; 0 disables
}

func (c *SGDConfig) setDefaults() {
	if c.K <= 0 {
		c.K = 10
	}
	if c.LearnRate <= 0 {
		c.LearnRate = 0.01
	}
	if c.Decay <= 0 {
		c.Decay = 0.9
	}
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// TrainSGD factorizes by Hogwild SGD. Per observed rating (u,i,r):
//
//	e = r − x_u·y_i
//	x_u += η(e·y_i − λ·x_u);  y_i += η(e·x_u − λ·y_i)
//
// Entries are processed in a per-epoch shuffled order, partitioned across
// workers without locks.
func TrainSGD(mx *sparse.Matrix, cfg SGDConfig) (*linalg.Dense, *linalg.Dense, error) {
	cfg.setDefaults()
	if mx.NNZ() == 0 {
		return nil, nil, fmt.Errorf("solvers: empty matrix")
	}
	m, n, k := mx.Rows(), mx.Cols(), cfg.K
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Both factors start random for SGD (zero X would zero the y-gradient).
	x := host.InitialY(m, k, cfg.Seed+1)
	y := host.InitialY(n, k, cfg.Seed+2)

	// Flatten the ratings once into (u, i, r) triples for shuffling.
	type trip struct {
		u, i int32
		r    float32
	}
	trips := make([]trip, 0, mx.NNZ())
	r := mx.R
	for u := 0; u < m; u++ {
		cols, vals := r.Row(u)
		for j, c := range cols {
			trips = append(trips, trip{u: int32(u), i: c, r: vals[j]})
		}
	}

	eta := cfg.LearnRate
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(trips), func(a, b int) { trips[a], trips[b] = trips[b], trips[a] })
		workers := cfg.Workers
		if workers > len(trips) {
			workers = len(trips)
		}
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			lo := w * len(trips) / workers
			hi := (w + 1) * len(trips) / workers
			go func(chunk []trip) {
				defer wg.Done()
				for _, t := range chunk {
					xu := x.Row(int(t.u))
					yi := y.Row(int(t.i))
					var pred float32
					for d := 0; d < k; d++ {
						pred += xu[d] * yi[d]
					}
					e := t.r - pred
					if cfg.ClipWeight > 0 {
						if e > cfg.ClipWeight {
							e = cfg.ClipWeight
						} else if e < -cfg.ClipWeight {
							e = -cfg.ClipWeight
						}
					}
					for d := 0; d < k; d++ {
						xd, yd := xu[d], yi[d]
						xu[d] = xd + eta*(e*yd-cfg.Lambda*xd)
						yi[d] = yd + eta*(e*xd-cfg.Lambda*yd)
					}
				}
			}(trips[lo:hi])
		}
		wg.Wait()
		eta *= cfg.Decay
	}
	return x, y, nil
}

// CCDConfig configures CCD++ (Yu et al.), the cyclic-coordinate-descent
// solver of the related work: factors are updated one rank at a time, each
// rank-one subproblem solved coordinate-wise in closed form.
type CCDConfig struct {
	K          int
	Lambda     float32
	Iterations int // outer passes over the k ranks (default 5)
	Workers    int
	Seed       int64
}

func (c *CCDConfig) setDefaults() {
	if c.K <= 0 {
		c.K = 10
	}
	if c.Iterations <= 0 {
		c.Iterations = 5
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// TrainCCD factorizes by CCD++. It maintains the residual matrix
// E = R − X·Yᵀ implicitly by adding back the active rank before each
// rank-one refit:
//
//	for each rank d: Ê = E + x_d·y_dᵀ, then alternately
//	  x_ud = Σ_i Ê_ui·y_id / (λ + Σ_i y_id²)   over u (and symmetrically y)
func TrainCCD(mx *sparse.Matrix, cfg CCDConfig) (*linalg.Dense, *linalg.Dense, error) {
	cfg.setDefaults()
	if mx.NNZ() == 0 {
		return nil, nil, fmt.Errorf("solvers: empty matrix")
	}
	m, n, k := mx.Rows(), mx.Cols(), cfg.K
	x := linalg.NewDense(m, k)
	y := host.InitialY(n, k, cfg.Seed)

	r := mx.R
	c := mx.C
	// Residual values aligned with the CSR (row-major) nonzero layout, plus
	// the CSC permutation to keep the column view in sync.
	resid := make([]float32, r.NNZ())
	copy(resid, r.Val)
	// cscToCSR[p] = position in the CSR value array of the CSC entry p.
	cscToCSR := buildCSCPerm(r, c)

	for it := 0; it < cfg.Iterations; it++ {
		for d := 0; d < k; d++ {
			// Ê = E + x_d y_dᵀ over observed entries.
			addRankOne(r, resid, x, y, d, +1)
			// Inner alternations on the rank-one subproblem.
			for inner := 0; inner < 2; inner++ {
				updateRankRows(r, resid, x, y, d, cfg)
				updateRankCols(c, cscToCSR, resid, x, y, d, cfg)
			}
			// E = Ê − x_d y_dᵀ with the refreshed factors.
			addRankOne(r, resid, x, y, d, -1)
		}
	}
	return x, y, nil
}

func buildCSCPerm(r *sparse.CSR, c *sparse.CSC) []int64 {
	next := make([]int64, r.NumCols)
	copy(next, c.ColPtr[:r.NumCols])
	perm := make([]int64, r.NNZ())
	for u := 0; u < r.NumRows; u++ {
		lo, hi := r.RowPtr[u], r.RowPtr[u+1]
		for p := lo; p < hi; p++ {
			col := r.ColIdx[p]
			perm[next[col]] = p
			next[col]++
		}
	}
	return perm
}

func addRankOne(r *sparse.CSR, resid []float32, x, y *linalg.Dense, d int, sign float32) {
	k := x.Cols
	for u := 0; u < r.NumRows; u++ {
		xd := x.Data[u*k+d]
		if xd == 0 {
			continue
		}
		lo, hi := r.RowPtr[u], r.RowPtr[u+1]
		for p := lo; p < hi; p++ {
			resid[p] += sign * xd * y.Data[int(r.ColIdx[p])*k+d]
		}
	}
}

func updateRankRows(r *sparse.CSR, resid []float32, x, y *linalg.Dense, d int, cfg CCDConfig) {
	k := x.Cols
	parallelRows(r.NumRows, cfg.Workers, func(u int) {
		lo, hi := r.RowPtr[u], r.RowPtr[u+1]
		if lo == hi {
			x.Data[u*k+d] = 0
			return
		}
		var num, den float64
		for p := lo; p < hi; p++ {
			yd := float64(y.Data[int(r.ColIdx[p])*k+d])
			num += float64(resid[p]) * yd
			den += yd * yd
		}
		x.Data[u*k+d] = float32(num / (den + float64(cfg.Lambda)))
	})
}

func updateRankCols(c *sparse.CSC, perm []int64, resid []float32, x, y *linalg.Dense, d int, cfg CCDConfig) {
	k := y.Cols
	parallelRows(c.NumCols, cfg.Workers, func(i int) {
		lo, hi := c.ColPtr[i], c.ColPtr[i+1]
		if lo == hi {
			y.Data[i*k+d] = 0
			return
		}
		var num, den float64
		for p := lo; p < hi; p++ {
			xd := float64(x.Data[int(c.RowIdx[p])*k+d])
			num += float64(resid[perm[p]]) * xd
			den += xd * xd
		}
		y.Data[i*k+d] = float32(num / (den + float64(cfg.Lambda)))
	})
}

// parallelRows applies fn to every index in [0, n) across workers.
func parallelRows(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}
