// alseval evaluates a model trained by alstrain against a rating file:
// RMSE/MAE on the given ratings and, with -train, ranking quality
// (precision/recall@N) of the model's top-N lists against them.
//
// With -compare-precisions it additionally quantizes the item factors to
// f16 and i8 — the same per-row symmetric encoding alsserve -precision
// uses — and reports, per precision, the accuracy cost of serving
// compressed: RMSE/MAE deltas, precision/recall@N deltas (with -train),
// and the mean top-N overlap against the float32 ranking.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/quant"
	"repro/internal/sparse"
)

func main() {
	modelPath := flag.String("model", "", "model checkpoint written by alstrain -out")
	testPath := flag.String("test", "", "rating file to evaluate against")
	trainPath := flag.String("train", "", "training rating file (enables precision/recall@N; its items are excluded from top-N)")
	oneBased := flag.Bool("one-based", true, "IDs in the rating files start at 1")
	n := flag.Int("n", 10, "top-N size for ranking metrics")
	relThresh := flag.Float64("relevant", 4.0, "minimum test rating counted as relevant")
	implicit := flag.Bool("implicit", false, "evaluate an implicit-feedback model: skip RMSE/MAE (preferences, not ratings, are predicted) and count every held-out rating as relevant")
	comparePrec := flag.Bool("compare-precisions", false, "also evaluate the f16- and i8-quantized item factors and report accuracy deltas vs float32")
	flag.Parse()
	if *implicit {
		*relThresh = 0
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "alseval:", err)
		os.Exit(1)
	}
	if *modelPath == "" || *testPath == "" {
		fail(fmt.Errorf("need -model and -test"))
	}

	st, err := checkpoint.Load(checkpoint.OS, *modelPath)
	if err != nil {
		fail(err)
	}
	model := core.ModelOf(st)
	test, err := core.AlignRatings(model, *testPath, *oneBased)
	if err != nil {
		fail(err)
	}

	fmt.Printf("model: k=%d users=%d items=%d\n", model.K, model.X.Rows, model.Y.Rows)
	fmt.Printf("test ratings: %d\n", test.NNZ())
	var rmse32, mae32 float64
	if *implicit {
		if *trainPath == "" {
			fail(fmt.Errorf("-implicit needs -train: implicit models are evaluated by ranking, which excludes training items"))
		}
	} else {
		rmse32 = model.RMSE(test)
		mae32 = model.MAE(test)
		fmt.Printf("RMSE: %.4f\n", rmse32)
		fmt.Printf("MAE:  %.4f\n", mae32)
	}

	var train *sparse.CSR
	var p32, r32 float64
	if *trainPath != "" {
		train, err = core.AlignRatings(model, *trainPath, *oneBased)
		if err != nil {
			fail(err)
		}
		p32, r32 = metrics.PrecisionRecallAtN(train, test, model.X, model.Y, *n, float32(*relThresh))
		fmt.Printf("precision@%d: %.4f\n", *n, p32)
		fmt.Printf("recall@%d:    %.4f\n", *n, r32)
	}

	if !*comparePrec {
		return
	}
	for _, prec := range []quant.Precision{quant.F16, quant.I8} {
		qy, err := quant.EncodeDense(model.Y, prec)
		if err != nil {
			fail(fmt.Errorf("quantizing item factors to %v: %w", prec, err))
		}
		// Every metric below scores against the dequantized factors — the
		// exact values the fused serving kernels reproduce row by row.
		yd := qy.Decode()
		fmt.Printf("\n%v: %d bytes (%.2fx smaller), max |dequant err| %.3g\n",
			prec, qy.Bytes(), float64(4*len(model.Y.Data))/float64(qy.Bytes()), qy.MaxAbsErr)
		if !*implicit {
			rmse := metrics.RMSE(test, model.X, yd)
			mae := metrics.MAE(test, model.X, yd)
			fmt.Printf("  RMSE: %.4f (%+.5f vs f32)\n", rmse, rmse-rmse32)
			fmt.Printf("  MAE:  %.4f (%+.5f vs f32)\n", mae, mae-mae32)
		}
		if train != nil {
			p, r := metrics.PrecisionRecallAtN(train, test, model.X, yd, *n, float32(*relThresh))
			fmt.Printf("  precision@%d: %.4f (%+.4f vs f32)\n", *n, p, p-p32)
			fmt.Printf("  recall@%d:    %.4f (%+.4f vs f32)\n", *n, r, r-r32)
		}
		fmt.Printf("  overlap@%d:   %.4f (mean fraction of the f32 top-%d reproduced)\n",
			*n, meanOverlap(train, model, qy, *n), *n)
	}
}

// meanOverlap averages, over all users, |f32 top-N ∩ quantized top-N| / N:
// the fraction of each user's float32 ranking the quantized scan serves.
// Rated items are excluded from both sides when a training matrix is given.
func meanOverlap(train *sparse.CSR, m *core.Model, qy *quant.Matrix, n int) float64 {
	users := m.X.Rows
	if train == nil {
		train = &sparse.CSR{NumRows: users, NumCols: m.Y.Rows, RowPtr: make([]int64, users+1)}
	}
	var sum float64
	for u := 0; u < users; u++ {
		rated := make(map[int]bool)
		cols, _ := train.Row(u)
		for _, c := range cols {
			rated[int(c)] = true
		}
		excluded := func(i int) bool { return rated[i] }
		ref := metrics.TopN(train, m.X, m.Y, u, n)
		in := make(map[int]bool, len(ref))
		for _, it := range ref {
			in[it] = true
		}
		hits := 0
		for _, s := range qy.TopN(m.X.Row(u), excluded, n) {
			if in[s.Item] {
				hits++
			}
		}
		if len(ref) > 0 {
			sum += float64(hits) / float64(len(ref))
		}
	}
	return sum / float64(users)
}
