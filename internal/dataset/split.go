package dataset

import (
	"fmt"
	"math/rand"

	"repro/internal/sparse"
)

// Split partitions a rating matrix into train and test sets by holding out
// each rating independently with probability testFrac. The split is
// deterministic for a given seed. Users/items that end up with no training
// ratings simply keep zero factors (Algorithm 2 skips empty rows), matching
// how the paper's implementation handles cold rows.
func Split(mx *sparse.Matrix, testFrac float64, seed int64) (train, test *sparse.Matrix, err error) {
	if testFrac < 0 || testFrac >= 1 {
		return nil, nil, fmt.Errorf("dataset: testFrac %g out of [0,1)", testFrac)
	}
	rng := rand.New(rand.NewSource(seed))
	m, n := mx.Rows(), mx.Cols()
	r := mx.R
	// Draw every rating's side first, so each side's columns are sized
	// once: the matrices adopt them.
	held := make([]bool, r.NNZ())
	tests := 0
	for p := range held {
		if held[p] = rng.Float64() < testFrac; held[p] {
			tests++
		}
	}
	trainCOO := sparse.NewCOO(m, n)
	testCOO := sparse.NewCOO(m, n)
	trainCOO.Grow(len(held) - tests)
	testCOO.Grow(tests)
	for u := 0; u < m; u++ {
		for p := r.RowPtr[u]; p < r.RowPtr[u+1]; p++ {
			if held[p] {
				testCOO.Append(u, int(r.ColIdx[p]), r.Val[p])
			} else {
				trainCOO.Append(u, int(r.ColIdx[p]), r.Val[p])
			}
		}
	}
	train, err = sparse.NewMatrix(trainCOO)
	if err != nil {
		return nil, nil, err
	}
	test, err = sparse.NewMatrix(testCOO)
	if err != nil {
		return nil, nil, err
	}
	return train, test, nil
}
