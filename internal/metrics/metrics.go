// Package metrics provides the evaluation measures used to verify that the
// reproduced ALS solver actually learns: RMSE and MAE on held-out ratings,
// the regularized squared-error loss the algorithm minimizes (Eq. 2 of the
// paper), and ranking measures (precision/recall@N) for the recommender
// examples.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/linalg"
	"repro/internal/sparse"
)

// RMSE returns the root-mean-square error of the factorization X·Yᵀ against
// the stored ratings of r. Factors are m×k and n×k row-major. Empty test
// sets return NaN.
func RMSE(r *sparse.CSR, x, y *linalg.Dense) float64 {
	se, n := squaredError(r, x, y)
	if n == 0 {
		return math.NaN()
	}
	return math.Sqrt(se / float64(n))
}

// MAE returns the mean absolute error of the factorization on r's ratings.
func MAE(r *sparse.CSR, x, y *linalg.Dense) float64 {
	var sum float64
	var n int
	for u := 0; u < r.NumRows; u++ {
		xu := x.Row(u)
		cols, vals := r.Row(u)
		for j, c := range cols {
			pred := linalg.Dot(xu, y.Row(int(c)))
			sum += math.Abs(pred - float64(vals[j]))
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

func squaredError(r *sparse.CSR, x, y *linalg.Dense) (float64, int) {
	var se float64
	var n int
	for u := 0; u < r.NumRows; u++ {
		xu := x.Row(u)
		cols, vals := r.Row(u)
		for j, c := range cols {
			pred := linalg.Dot(xu, y.Row(int(c)))
			d := pred - float64(vals[j])
			se += d * d
			n++
		}
	}
	return se, n
}

// RegularizedLoss evaluates the paper's Eq. 2 objective:
//
//	L(X,Y) = Σ_{(u,i)∈Ω} (r_ui − x_u·y_i)² + λ·Σ_u |Ω_u||x_u|² + λ·Σ_i |Ω_i||y_i|²
//
// with the weighted-λ convention (ALS-WR, Zhou et al.) when weighted is
// true, or the plain λ(|x_u|²+|y_i|²) convention summed over observed pairs
// when false. ALS with λ>0 must not increase this between half-steps; the
// property tests rely on that invariant.
func RegularizedLoss(r *sparse.CSR, x, y *linalg.Dense, lambda float64, weighted bool) float64 {
	se, _ := squaredError(r, x, y)
	reg := 0.0
	colNNZ := make([]int, r.NumCols)
	for _, c := range r.ColIdx {
		colNNZ[c]++
	}
	if weighted {
		for u := 0; u < r.NumRows; u++ {
			reg += float64(r.RowNNZ(u)) * linalg.Nrm2Sq(x.Row(u))
		}
		for i, n := range colNNZ {
			reg += float64(n) * linalg.Nrm2Sq(y.Row(i))
		}
	} else {
		// Plain convention: each observed pair contributes λ(|x_u|²+|y_i|²)
		// exactly once per its row and column membership.
		for u := 0; u < r.NumRows; u++ {
			if r.RowNNZ(u) > 0 {
				reg += linalg.Nrm2Sq(x.Row(u))
			}
		}
		for i, n := range colNNZ {
			if n > 0 {
				reg += linalg.Nrm2Sq(y.Row(i))
			}
		}
	}
	return se + lambda*reg
}

// ImplicitLoss evaluates the implicit-feedback (Hu/Koren/Volinsky) objective
//
//	L(X,Y) = Σ_u Σ_i c_ui (p_ui − x_u·y_i)² + λ(Σ_u|x_u|² + Σ_i|y_i|²)
//
// with preference p_ui = 1 for observed pairs (0 otherwise) and confidence
// c_ui = 1 + α·r_ui (1 for unobserved). The dense m×n sum collapses via the
// Gram trick: the unobserved baseline Σ_all (x·y)² is Σ_u x_uᵀ(YᵀY)x_u, and
// each observed pair adds the correction c(1−s)² − s². Exact per-row solves
// cannot increase this between half-steps (the solvers tests pin it).
func ImplicitLoss(r *sparse.CSR, x, y *linalg.Dense, alpha, lambda float64) float64 {
	k := x.Cols
	gram := make([]float64, k*k)
	for row := 0; row < y.Rows; row++ {
		f := y.Row(row)
		for i := 0; i < k; i++ {
			fi := float64(f[i])
			gi := gram[i*k:]
			for j := i; j < k; j++ {
				gi[j] += fi * float64(f[j])
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			gram[j*k+i] = gram[i*k+j]
		}
	}
	var loss float64
	gx := make([]float64, k)
	for u := 0; u < r.NumRows; u++ {
		xu := x.Row(u)
		// Baseline over all items: x_uᵀ G x_u.
		for i := 0; i < k; i++ {
			var s float64
			gi := gram[i*k:]
			for j := 0; j < k; j++ {
				s += gi[j] * float64(xu[j])
			}
			gx[i] = s
		}
		for i := 0; i < k; i++ {
			loss += float64(xu[i]) * gx[i]
		}
		// Observed corrections.
		cols, vals := r.Row(u)
		for z, c := range cols {
			s := linalg.Dot(xu, y.Row(int(c)))
			conf := 1 + alpha*float64(vals[z])
			d := 1 - s
			loss += conf*d*d - s*s
		}
	}
	var reg float64
	for u := 0; u < x.Rows; u++ {
		reg += linalg.Nrm2Sq(x.Row(u))
	}
	for i := 0; i < y.Rows; i++ {
		reg += linalg.Nrm2Sq(y.Row(i))
	}
	return loss + lambda*reg
}

// TopN returns the indices of the n highest-scoring unrated items for user
// u, scored by x_u·y_i. Items already rated in r are excluded. Ties are
// broken by lower index for determinism. A bounded min-heap (TopK) keeps
// the selection O(items·log n) instead of sorting every candidate — n is
// tens while catalogs are hundreds of thousands.
func TopN(r *sparse.CSR, x, y *linalg.Dense, u, n int) []int {
	rated := make(map[int]bool)
	cols, _ := r.Row(u)
	for _, c := range cols {
		rated[int(c)] = true
	}
	xu := x.Row(u)
	t := NewTopK(n)
	for i := 0; i < y.Rows; i++ {
		if rated[i] {
			continue
		}
		t.Push(i, linalg.Dot(xu, y.Row(i)))
	}
	scored := t.Drain()
	out := make([]int, len(scored))
	for i, s := range scored {
		out[i] = s.Item
	}
	return out
}

// TopNSort is the full-scan reference selection: it scores every candidate,
// sorts the whole catalog, and takes the first n. O(items·log items) — kept
// as the differential-test oracle and the benchmark baseline the heap
// (TopN) and the serving scans are measured against.
func TopNSort(r *sparse.CSR, x, y *linalg.Dense, u, n int) []int {
	rated := make(map[int]bool)
	cols, _ := r.Row(u)
	for _, c := range cols {
		rated[int(c)] = true
	}
	xu := x.Row(u)
	all := make([]Scored, 0, y.Rows)
	for i := 0; i < y.Rows; i++ {
		if rated[i] {
			continue
		}
		all = append(all, Scored{Item: i, Score: linalg.Dot(xu, y.Row(i))})
	}
	sort.Slice(all, func(a, b int) bool { return weaker(all[b], all[a]) })
	if n < 0 {
		n = 0
	}
	if n > len(all) {
		n = len(all)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].Item
	}
	return out
}

// PrecisionRecallAtN scores top-N recommendations against a held-out test
// set: an item counts as relevant if the user rated it at least relThresh in
// test. Returns macro-averaged precision and recall over users with at least
// one relevant test item.
func PrecisionRecallAtN(train, test *sparse.CSR, x, y *linalg.Dense, n int, relThresh float32) (precision, recall float64) {
	var pSum, rSum float64
	users := 0
	for u := 0; u < test.NumRows; u++ {
		cols, vals := test.Row(u)
		relevant := make(map[int]bool)
		for j, c := range cols {
			if vals[j] >= relThresh {
				relevant[int(c)] = true
			}
		}
		if len(relevant) == 0 {
			continue
		}
		users++
		hits := 0
		for _, item := range TopN(train, x, y, u, n) {
			if relevant[item] {
				hits++
			}
		}
		pSum += float64(hits) / float64(n)
		rSum += float64(hits) / float64(len(relevant))
	}
	if users == 0 {
		return math.NaN(), math.NaN()
	}
	return pSum / float64(users), rSum / float64(users)
}

// Summary is a compact per-run record used by the experiment harness.
type Summary struct {
	Dataset   string
	Platform  string
	Variant   string
	Seconds   float64 // simulated or wall-clock, per 5 ALS iterations
	RMSE      float64
	Iteration int
}

// String renders one result row.
func (s Summary) String() string {
	return fmt.Sprintf("%-6s %-4s %-28s %10.4fs rmse=%.4f", s.Dataset, s.Platform, s.Variant, s.Seconds, s.RMSE)
}
