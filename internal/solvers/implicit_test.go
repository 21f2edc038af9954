package solvers

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/host"
	"repro/internal/linalg"
	"repro/internal/sparse"
)

// ImplicitConfig configures implicit-feedback ALS. Ratings are treated as
// observation strengths: preference p_ui = 1 for every observed pair, with
// confidence c_ui = 1 + Alpha·r_ui.
type ImplicitConfig struct {
	K          int
	Lambda     float32
	Alpha      float32 // confidence scaling (default 40, following the paper's reference [1]'s source)
	Iterations int
	Workers    int
	Seed       int64
}

func (c *ImplicitConfig) setDefaults() {
	if c.K <= 0 {
		c.K = 10
	}
	if c.Alpha <= 0 {
		c.Alpha = 40
	}
	if c.Iterations <= 0 {
		c.Iterations = 5
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// TrainImplicit is the implicit-feedback ALS reference loop that the host
// trainer's implicit mode is held to (equivalence_test.go). Per user:
//
//	x_u = (YᵀY + Yᵀ(C_u−I)Y + λI)⁻¹ Yᵀ C_u p_u
//
// using the standard decomposition so the dense YᵀY Gram matrix is computed
// once per half-iteration and each user adds only its observed rank-|Ω|
// correction.
func TrainImplicit(mx *sparse.Matrix, cfg ImplicitConfig) (*linalg.Dense, *linalg.Dense, error) {
	cfg.setDefaults()
	if mx.NNZ() == 0 {
		return nil, nil, fmt.Errorf("solvers: empty matrix")
	}
	m, n, k := mx.Rows(), mx.Cols(), cfg.K
	x := linalg.NewDense(m, k)
	y := host.InitialY(n, k, cfg.Seed)
	rt := mx.RT()

	for it := 0; it < cfg.Iterations; it++ {
		if err := implicitSide(mx.R, y, x, cfg); err != nil {
			return nil, nil, fmt.Errorf("solvers: implicit iteration %d (X): %w", it+1, err)
		}
		if err := implicitSide(rt, x, y, cfg); err != nil {
			return nil, nil, fmt.Errorf("solvers: implicit iteration %d (Y): %w", it+1, err)
		}
	}
	return x, y, nil
}

func implicitSide(r *sparse.CSR, fixed, out *linalg.Dense, cfg ImplicitConfig) error {
	k := cfg.K
	// Dense Gram over the whole fixed factor: G = FᵀF (computed once).
	gram := make([]float64, k*k)
	for row := 0; row < fixed.Rows; row++ {
		f := fixed.Row(row)
		for i := 0; i < k; i++ {
			fi := float64(f[i])
			for j := i; j < k; j++ {
				gram[i*k+j] += fi * float64(f[j])
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			gram[j*k+i] = gram[i*k+j]
		}
	}

	workers := cfg.Workers
	if workers > r.NumRows {
		workers = r.NumRows
	}
	if workers < 1 {
		workers = 1
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	var firstErr atomic.Value
	worker := func() {
		defer wg.Done()
		smat := linalg.NewDense(k, k)
		svec := make([]float32, k)
		for {
			u := int(cursor.Add(1)) - 1
			if u >= r.NumRows {
				return
			}
			cols, vals := r.Row(u)
			xu := out.Row(u)
			if len(cols) == 0 {
				for i := range xu {
					xu[i] = 0
				}
				continue
			}
			// smat = G + Σ α·r · f fᵀ + λI ; svec = Σ (1+α·r) · f.
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					smat.Data[i*k+j] = float32(gram[i*k+j])
				}
				svec[i] = 0
			}
			for z, c := range cols {
				conf := cfg.Alpha * vals[z] // c_ui − 1
				f := fixed.Row(int(c))
				for i := 0; i < k; i++ {
					ci := conf * f[i]
					row := smat.Data[i*k:]
					for j := 0; j < k; j++ {
						row[j] += ci * f[j]
					}
					svec[i] += (1 + conf) * f[i]
				}
			}
			smat.AddDiag(cfg.Lambda)
			if err := linalg.CholeskySolve(smat, svec); err != nil {
				firstErr.CompareAndSwap(nil, fmt.Errorf("user %d: %w", u, err))
				return
			}
			copy(xu, svec)
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return err
	}
	return nil
}

// PreferenceScore ranks items for implicit models: the predicted preference
// x_u·y_i (≈1 for strong preferences, ≈0 for none).
func PreferenceScore(x, y *linalg.Dense, u, i int) float64 {
	return linalg.Dot(x.Row(u), y.Row(i))
}
