// Package repro's benchmark harness regenerates every table and figure of
// the paper's evaluation (see EXPERIMENTS.md for the mapping) and measures
// the real host kernels. Figure benchmarks report the paper's headline
// comparisons as custom metrics (e.g. "speedup_vs_flat") so `go test
// -bench=.` output can be read against the paper directly.
//
// Simulated-device results are deterministic; wall-clock benches (Host*)
// measure this machine.
package repro

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/host"
	"repro/internal/kernels"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/quant"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/variant"
)

// benchSettings shrinks the default experiment scale so a full -bench=.
// sweep stays in the minutes range; shapes are scale-stable (the
// calibration tests in internal/experiments run at full bench scale).
func benchSettings() experiments.Settings {
	s := experiments.Defaults()
	s.Scale = 0.5
	s.Iterations = 2
	return s
}

// BenchmarkTable1Datasets regenerates Table I: synthetic datasets at the
// paper's shapes, with their degree statistics.
func BenchmarkTable1Datasets(b *testing.B) {
	s := benchSettings()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(s); err != nil {
			b.Fatal(err)
		}
	}
	dss := experiments.Datasets(s)
	b.ReportMetric(float64(dss[1].Matrix.NNZ()), "ntfx_nnz")
	b.ReportMetric(sparse.WarpImbalance(dss[1].Matrix.R, 32), "warp_imbalance")
}

// BenchmarkFig1BaselineCPUvsGPU regenerates Figure 1: the flat SAC'15
// baseline on the 16-core CPU vs the K20c. Metric: how many times slower
// the GPU is (paper: ~8.4x).
func BenchmarkFig1BaselineCPUvsGPU(b *testing.B) {
	s := benchSettings()
	ds := experiments.Datasets(s)[1] // Netflix
	cpu, gpu := device.XeonE52670(), device.K20c()
	var ratio float64
	for i := 0; i < b.N; i++ {
		tc, err := kernels.Estimate(ds.Matrix, kernels.Config{Device: cpu, Spec: kernels.Baseline(),
			K: s.K, Iterations: s.Iterations})
		if err != nil {
			b.Fatal(err)
		}
		tg, err := kernels.Estimate(ds.Matrix, kernels.Config{Device: gpu, Spec: kernels.Baseline(),
			K: s.K, Iterations: s.Iterations})
		if err != nil {
			b.Fatal(err)
		}
		ratio = tg.Seconds() / tc.Seconds()
	}
	b.ReportMetric(ratio, "gpu_over_cpu_x")
}

// BenchmarkFig3RegisterKernel measures the Fig. 3 restructuring on the real
// host: the baseline k×k-scratch Gram kernel vs the k-strip register form
// vs the unrolled/vectorized form.
func BenchmarkFig3RegisterKernel(b *testing.B) {
	const k, n, omega = 10, 4096, 200
	rng := rand.New(rand.NewSource(1))
	y := make([]float32, n*k)
	for i := range y {
		y[i] = rng.Float32()
	}
	cols := make([]int32, omega)
	for i := range cols {
		cols[i] = int32(rng.Intn(n))
	}
	vals := make([]float32, omega)
	for i := range vals {
		vals[i] = rng.Float32() * 5
	}
	smat := make([]float32, k*k)
	gsum := make([]float32, k*k)
	packed := make([]float32, linalg.PackedLen(k))
	svec := make([]float32, k)
	b.Run("scatter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linalg.GramScatter(y, k, cols, smat, gsum)
		}
	})
	b.Run("register", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linalg.GramRegister(y, k, cols, smat)
		}
	})
	b.Run("unrolled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linalg.GramUnrolled(y, k, cols, smat)
		}
	})
	// The fused forms also produce the S2 right-hand side in the same pass.
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linalg.GramRHSFused(y, k, cols, vals, packed, svec)
		}
	})
	b.Run("fused-unrolled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linalg.GramRHSFusedUnrolled(y, k, cols, vals, packed, svec)
		}
	})
}

// BenchmarkFig6Variants regenerates Figure 6: the optimization ladder per
// device on the Netflix-shaped dataset.
func BenchmarkFig6Variants(b *testing.B) {
	s := benchSettings()
	ds := experiments.Datasets(s)[1]
	for _, dev := range device.All() {
		for _, v := range variant.Ladder() {
			dev, v := dev, v
			b.Run(dev.Kind.String()+"/"+v.ID(), func(b *testing.B) {
				var secs float64
				for i := 0; i < b.N; i++ {
					res, err := kernels.Estimate(ds.Matrix, kernels.Config{
						Device: dev, Spec: kernels.FromVariant(v),
						K: s.K, Iterations: s.Iterations})
					if err != nil {
						b.Fatal(err)
					}
					secs = res.Seconds()
				}
				b.ReportMetric(secs, "sim_seconds")
			})
		}
	}
}

// BenchmarkFig7Speedups regenerates Figure 7's three headline comparisons
// on the Netflix-shaped dataset (paper: 5.5x, 21.2x, 2.2-6.8x).
func BenchmarkFig7Speedups(b *testing.B) {
	s := benchSettings()
	ds := experiments.Datasets(s)[1]
	cpu, gpu := device.XeonE52670(), device.K20c()
	var vsCPU, vsGPU, vsCuMF float64
	for i := 0; i < b.N; i++ {
		run := func(dev *device.Device, spec kernels.Spec) float64 {
			res, err := kernels.Estimate(ds.Matrix, kernels.Config{Device: dev, Spec: spec,
				K: s.K, Iterations: s.Iterations})
			if err != nil {
				b.Fatal(err)
			}
			return res.Seconds()
		}
		oursCPU := run(cpu, kernels.FromVariant(experiments.BestVariant(device.CPU)))
		oursGPU := run(gpu, kernels.FromVariant(experiments.BestVariant(device.GPU)))
		flatCPU := run(cpu, kernels.Baseline())
		flatGPU := run(gpu, kernels.Baseline())
		cm, err := baseline.EstimateCuMF(ds.Matrix, baseline.CuMFConfig{Device: gpu,
			K: s.K, Iterations: s.Iterations})
		if err != nil {
			b.Fatal(err)
		}
		vsCPU, vsGPU, vsCuMF = flatCPU/oursCPU, flatGPU/oursGPU, cm.Seconds()/oursGPU
	}
	b.ReportMetric(vsCPU, "speedup_vs_sac15_cpu_x")
	b.ReportMetric(vsGPU, "speedup_vs_sac15_gpu_x")
	b.ReportMetric(vsCuMF, "speedup_vs_cumf_x")
}

// BenchmarkFig8StageBreakdown regenerates Figure 8: the S1/S2/S3 shares on
// Netflix/K20c at the final tuning stage.
func BenchmarkFig8StageBreakdown(b *testing.B) {
	s := benchSettings()
	ds := experiments.Datasets(s)[1]
	var share [3]float64
	for i := 0; i < b.N; i++ {
		res, err := kernels.Estimate(ds.Matrix, kernels.Config{
			Device: device.K20c(),
			Spec:   kernels.Spec{S1Local: true, S1Register: true, S2Local: true},
			K:      s.K, Iterations: s.Iterations})
		if err != nil {
			b.Fatal(err)
		}
		share = res.Report.StageShare()
	}
	b.ReportMetric(share[0]*100, "s1_pct")
	b.ReportMetric(share[1]*100, "s2_pct")
	b.ReportMetric(share[2]*100, "s3_pct")
}

// BenchmarkFig9CrossPlatform regenerates Figure 9: best-variant times on
// the three devices; metrics are the slowdowns vs the CPU (paper: GPU 1.5x,
// MIC 4.1x).
func BenchmarkFig9CrossPlatform(b *testing.B) {
	s := benchSettings()
	ds := experiments.Datasets(s)[0] // Movielens
	var gpuX, micX float64
	for i := 0; i < b.N; i++ {
		times := map[device.Kind]float64{}
		for _, dev := range device.All() {
			res, err := kernels.Estimate(ds.Matrix, kernels.Config{
				Device: dev, Spec: kernels.FromVariant(experiments.BestVariant(dev.Kind)),
				K: s.K, Iterations: s.Iterations})
			if err != nil {
				b.Fatal(err)
			}
			times[dev.Kind] = res.Seconds()
		}
		gpuX = times[device.GPU] / times[device.CPU]
		micX = times[device.MIC] / times[device.CPU]
	}
	b.ReportMetric(gpuX, "gpu_over_cpu_x")
	b.ReportMetric(micX, "mic_over_cpu_x")
}

// BenchmarkFig10BlockSize regenerates Figure 10: the work-group size sweep
// on the GPU (paper: best at 16/32 for k=10).
func BenchmarkFig10BlockSize(b *testing.B) {
	s := benchSettings()
	ds := experiments.Datasets(s)[1]
	for _, ws := range []int{8, 16, 32, 64, 128} {
		ws := ws
		b.Run("ws"+itoa(ws), func(b *testing.B) {
			var secs float64
			for i := 0; i < b.N; i++ {
				res, err := kernels.Estimate(ds.Matrix, kernels.Config{
					Device: device.K20c(), Spec: kernels.FromVariant(experiments.BestVariant(device.GPU)),
					K: s.K, Iterations: s.Iterations, GroupSize: ws})
				if err != nil {
					b.Fatal(err)
				}
				secs = res.Seconds()
			}
			b.ReportMetric(secs, "sim_seconds")
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- Real host wall-clock benchmarks ---

func hostBenchMatrix(b *testing.B) *sparse.Matrix {
	b.Helper()
	return dataset.Netflix.ScaledForBench(0.001).Generate(1).Matrix
}

// BenchmarkHostFlatVsBatched measures the real scheduling difference on
// this machine: static contiguous blocks (flat) vs dynamic chunked sharing
// (thread batching).
func BenchmarkHostFlatVsBatched(b *testing.B) {
	mx := hostBenchMatrix(b)
	run := func(b *testing.B, flat bool) {
		for i := 0; i < b.N; i++ {
			if _, err := host.Train(mx, host.Config{K: 10, Lambda: 0.1, Iterations: 1, Seed: 1,
				Flat: flat, Variant: variant.Options{Register: true}}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("flat", func(b *testing.B) { run(b, true) })
	b.Run("batched", func(b *testing.B) { run(b, false) })
}

// BenchmarkHostVariants measures the full code-variant space (the paper's 8
// plus the fused/packed family) as real Go kernels.
func BenchmarkHostVariants(b *testing.B) {
	mx := hostBenchMatrix(b)
	for _, v := range variant.Extended() {
		v := v
		b.Run(v.ID(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := host.Train(mx, host.Config{K: 10, Lambda: 0.1, Iterations: 1, Seed: 1, Variant: v}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCholesky measures the S3 solver at the paper's k=10 and at the
// larger k values cuMF targets.
func BenchmarkCholesky(b *testing.B) {
	for _, k := range []int{10, 32, 100} {
		k := k
		b.Run("k"+itoa(k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			y := make([]float32, 4*k*k)
			for i := range y {
				y[i] = rng.Float32()
			}
			cols := make([]int32, 4*k)
			for i := range cols {
				cols[i] = int32(i)
			}
			a := linalg.NewDense(k, k)
			rhs := make([]float32, k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				linalg.GramRegister(y, k, cols, a.Data)
				a.AddDiag(0.1)
				for j := range rhs {
					rhs[j] = 1
				}
				if err := linalg.CholeskySolve(a, rhs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCSRTranspose measures the CSR↔CSC conversion the solver does
// once per training run.
func BenchmarkCSRTranspose(b *testing.B) {
	mx := hostBenchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mx.R.ToCSC() == nil {
			b.Fatal("nil transpose")
		}
	}
}

// BenchmarkGatherGaxpy measures the S2 kernel forms.
func BenchmarkGatherGaxpy(b *testing.B) {
	const k, n, omega = 10, 4096, 200
	rng := rand.New(rand.NewSource(3))
	y := make([]float32, n*k)
	for i := range y {
		y[i] = rng.Float32()
	}
	cols := make([]int32, omega)
	vals := make([]float32, omega)
	for i := range cols {
		cols[i] = int32(rng.Intn(n))
		vals[i] = 3
	}
	svec := make([]float32, k)
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linalg.GatherGaxpy(y, k, cols, vals, svec)
		}
	})
	b.Run("unrolled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linalg.GatherGaxpyUnrolled(y, k, cols, vals, svec)
		}
	})
}

// BenchmarkDatasetGenerate measures the synthetic generator (alias-method
// sampling) at bench scale.
func BenchmarkDatasetGenerate(b *testing.B) {
	p := dataset.YahooR4.ScaledForBench(0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.Generate(int64(i)).Matrix.NNZ() == 0 {
			b.Fatal("empty generation")
		}
	}
}

// BenchmarkHostScaling measures real parallel scalability of the batched
// host solver across worker counts on this machine.
func BenchmarkHostScaling(b *testing.B) {
	mx := hostBenchMatrix(b)
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run("workers"+itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := host.Train(mx, host.Config{K: 10, Lambda: 0.1, Iterations: 1, Seed: 1,
					Workers: workers, Variant: variant.Options{Register: true, Local: true}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTopN measures the two top-N selections over a large catalog (the
// serving-path hot loop): the bounded heap (metrics.TopN, what
// Model.Recommend uses) and the serving layer's scan (serve.Server.ScoreTopN,
// on the caller's goroutine).
// The "sharded" names are kept from when that scan split Y over a worker
// pool, so the series in EXPERIMENTS.md continue.
func BenchmarkTopN(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const items = 100000
	y := linalg.NewDense(items, 10)
	for i := range y.Data {
		y.Data[i] = rng.Float32()
	}
	x := linalg.NewDense(1, 10)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	coo := sparse.NewCOO(1, items)
	for i := 0; i < 200; i++ {
		coo.Append(0, rng.Intn(items), 5)
	}
	coo.Rows, coo.Cols = 1, items
	m, err := sparse.NewCSR(coo)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(metrics.TopN(m, x, y, 0, 10)) != 10 {
				b.Fatal("wrong top-N size")
			}
		}
	})
	b.Run("sharded", func(b *testing.B) {
		benchScoreTopN(b, x.Row(0), y, quant.F32, serve.RatedExcluder(m, 0))
	})
	// One fleet2-mixed-k32 shard replica's request: 12 400 items at k=32,
	// a user with 80 rated items excluded.
	b.Run("sharded/k32", func(b *testing.B) {
		const rows, k = 12400, 32
		rng := rand.New(rand.NewSource(32)) // its own stream: the cases below must not depend on -bench
		y32 := linalg.NewDense(rows, k)
		for i := range y32.Data {
			y32.Data[i] = float32(rng.NormFloat64())
		}
		x32 := make([]float32, k)
		for i := range x32 {
			x32[i] = float32(rng.NormFloat64())
		}
		rated := sparse.NewCOO(1, rows)
		for i := 0; i < 80; i++ {
			rated.Append(0, i*(rows/80), 5)
		}
		m32, err := sparse.NewCSR(rated)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		benchScoreTopN(b, x32, y32, quant.F32, serve.RatedExcluder(m32, 0))
	})
	// The bare float32 range scan with the query already prepared, beside
	// scan-f16 / scan-i8 below: the steady-state inner loop of "sharded",
	// 0 allocs/op (pinned by metrics.TestScanTopKZeroAllocs).
	b.Run("scan-f32", func(b *testing.B) {
		ex := serve.RatedExcluder(m, 0)
		q := metrics.PrepareScan(x.Row(0), nil, nil, metrics.NewScreen(y))
		t := metrics.NewTopK(10)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Reset()
			metrics.ScanTopK(q, y, 0, y.Rows, ex, t)
			if _, full := t.Threshold(); !full {
				b.Fatal("wrong top-N size")
			}
		}
	})
	// The quantized serving path at both compressed precisions: one scan
	// walking the norm-ranked matrix until nothing left can enter the
	// heap. "zipf" has the popularity-shaped norms of an implicit model,
	// where most of the catalog is never scored; "flat" has unit-norm rows,
	// the degenerate case — the full scan plus one compare per four rows,
	// on one worker. rows_scored/op says which is which.
	zipf, flat := linalg.NewDense(items, 10), linalg.NewDense(items, 10)
	for r, rank := range rng.Perm(items) {
		var sumSq float64
		for c := 0; c < 10; c++ {
			v := rng.NormFloat64()
			zipf.Data[r*10+c] = float32(v)
			sumSq += v * v
		}
		toUnit := 1 / math.Sqrt(sumSq)
		toZipf := toUnit * math.Pow(float64(1+rank), -0.8)
		for c := 0; c < 10; c++ {
			flat.Data[r*10+c] = float32(float64(zipf.Data[r*10+c]) * toUnit)
			zipf.Data[r*10+c] = float32(float64(zipf.Data[r*10+c]) * toZipf)
		}
	}
	for _, prec := range []quant.Precision{quant.F16, quant.I8} {
		q, err := quant.EncodeDense(y, prec)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name string
			y    *linalg.Dense
		}{{"zipf", zipf}, {"flat", flat}} {
			b.Run(prec.String()+"-ranked/"+c.name, func(b *testing.B) {
				benchScoreTopN(b, x.Row(0), c.y, prec, serve.RatedExcluder(m, 0))
			})
		}
		// The bare kernel scan with a prepared query: the steady-state inner
		// loop, which must stay at 0 allocs/op (pinned by
		// quant.TestScanZeroAllocs; ReportAllocs makes regressions visible
		// in bench output too).
		b.Run("scan-"+prec.String(), func(b *testing.B) {
			ex := serve.RatedExcluder(m, 0)
			qr := q.Prepare(x.Row(0))
			t := metrics.NewTopK(10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Reset()
				q.ScanTopK(qr, 0, q.Rows, ex, t)
				if _, full := t.Threshold(); !full {
					b.Fatal("wrong top-N size")
				}
			}
		})
	}
}

// benchScoreTopN times Server.ScoreTopN's top 10 for x over a snapshot of
// y served at prec (the swap builds the screen or the ranked encoding, as
// in a server) and reports the rows it scored exactly, read from the
// server's als_scan_rows_total.
func benchScoreTopN(b *testing.B, x []float32, y *linalg.Dense, prec quant.Precision, ex func(int) bool) {
	srv := serve.New(serve.Config{CacheSize: -1})
	srv.SetPrecision(prec)
	sn := srv.Swap(&core.Model{K: y.Cols, X: linalg.NewDense(1, y.Cols), Y: y}, nil, "bench")
	rows := srv.Telemetry().Registry().Counter("als_scan_rows_total", "", "precision", "outcome").With(prec.String(), "scored")
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := srv.ScoreTopN(ctx, sn, x, ex, 10)
		if err != nil || len(out) != 10 {
			b.Fatalf("top-N: %d items, %v", len(out), err)
		}
	}
	b.ReportMetric(rows.Value()/float64(b.N), "rows_scored/op")
}

// BenchmarkRank measures what a quantized hot-swap pays once for the
// pruned scan: norms, sort and the permuted copy of a 50k×64 catalog (the
// catalog-implicit-k64-i8 serving shape).
func BenchmarkRank(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	y := linalg.NewDense(50000, 64)
	for i := range y.Data {
		y.Data[i] = float32(rng.NormFloat64())
	}
	for _, prec := range []quant.Precision{quant.F16, quant.I8} {
		q, err := quant.EncodeDense(y, prec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(prec.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if quant.Rank(q).Rows != q.Rows {
					b.Fatal("wrong shape")
				}
			}
		})
	}
}
