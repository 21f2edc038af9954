package linalg

import (
	"fmt"
	"math"
)

// MaxAbsDiff returns the largest absolute element-wise difference between
// two same-shaped matrices, and +Inf when either holds a NaN where the
// other is compared: it is the metric the equivalence and resume-identity
// tests of several packages use to show two factor matrices are the same,
// so a NaN-poisoned factor must not read as a match. No binary calls it.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	var max float64
	for i := range a.Data {
		x, y := float64(a.Data[i]), float64(b.Data[i])
		if math.IsNaN(x) || math.IsNaN(y) {
			return math.Inf(1)
		}
		if d := math.Abs(x - y); d > max {
			max = d
		}
	}
	return max
}
