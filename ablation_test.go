// Ablation benchmarks: isolate the mechanisms DESIGN.md §5 claims drive
// each result, by sweeping the input property the mechanism responds to.
// Each bench reports the measured effect as a metric so a reviewer can see
// the causal knob move.
package repro

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/sparse"
	"repro/internal/variant"
)

// skewedPreset builds a synthetic dataset with a controlled Zipf exponent
// so the row-degree skew — the cause of the flat kernel's warp imbalance —
// can be swept directly.
func skewedPreset(skew float64) dataset.Preset {
	return dataset.Preset{
		Name: "SKEW", Long: "skew ablation", Users: 4000, Items: 800,
		NNZ: 120000, MinVal: 1, MaxVal: 5, UserSkew: skew, ItemSkew: 0.5,
	}
}

// BenchmarkAblationSkewVsFlatPenalty: the thread-batching claim. As row
// skew grows, the flat one-thread-per-row GPU kernel pays increasing warp
// serialization while the batched kernel is insensitive — the flat/batched
// ratio must grow with skew.
func BenchmarkAblationSkewVsFlatPenalty(b *testing.B) {
	gpu := device.K20c()
	var prev float64
	for _, skew := range []float64{0.05, 0.6, 1.1} {
		skew := skew
		b.Run("zipf"+ftoa(skew), func(b *testing.B) {
			mx := skewedPreset(skew).Generate(1).Matrix
			imb := sparse.WarpImbalance(mx.R, 32)
			var ratio float64
			for i := 0; i < b.N; i++ {
				flat, err := kernels.Estimate(mx, kernels.Config{Device: gpu, Spec: kernels.Baseline(),
					K: 10, Iterations: 1})
				if err != nil {
					b.Fatal(err)
				}
				batched, err := kernels.Estimate(mx, kernels.Config{Device: gpu, Spec: kernels.Spec{},
					K: 10, Iterations: 1})
				if err != nil {
					b.Fatal(err)
				}
				ratio = flat.Seconds() / batched.Seconds()
			}
			b.ReportMetric(imb, "warp_imbalance")
			b.ReportMetric(ratio, "flat_over_batched_x")
			if prev != 0 && ratio < prev*0.95 {
				b.Errorf("flat penalty did not grow with skew: %.2f after %.2f", ratio, prev)
			}
			prev = ratio
		})
	}
}

// BenchmarkAblationCacheWorkingSet: the CPU local-memory claim. Staging
// pays off because the scattered walk over Y wastes cachelines; when Y far
// exceeds the LLC the first-stream misses grow too. Sweeping the item count
// (Y size) must increase the no-staging cost per nonzero.
func BenchmarkAblationCacheWorkingSet(b *testing.B) {
	cpu := device.XeonE52670()
	for _, items := range []int{2000, 100000, 800000} {
		items := items
		b.Run("items"+itoa(items), func(b *testing.B) {
			p := dataset.Preset{
				Name: "CACHE", Long: "cache ablation", Users: 3000, Items: items,
				NNZ: 90000, MinVal: 1, MaxVal: 5, UserSkew: 0.5, ItemSkew: 0.3,
			}
			mx := p.Generate(2).Matrix
			var perNNZ, boost float64
			for i := 0; i < b.N; i++ {
				plain, err := kernels.Estimate(mx, kernels.Config{Device: cpu, Spec: kernels.Spec{},
					K: 10, Iterations: 1})
				if err != nil {
					b.Fatal(err)
				}
				staged, err := kernels.Estimate(mx, kernels.Config{Device: cpu,
					Spec: kernels.Spec{S1Local: true, S2Local: true},
					K:    10, Iterations: 1})
				if err != nil {
					b.Fatal(err)
				}
				perNNZ = plain.Seconds() / float64(mx.NNZ()) * 1e9
				boost = plain.Seconds() / staged.Seconds()
			}
			b.ReportMetric(perNNZ, "ns_per_nnz_unstaged")
			b.ReportMetric(boost, "staging_boost_x")
		})
	}
}

// BenchmarkAblationTransferShare: the PCIe-placement choice. The one-time
// transfer must dominate tiny accelerator runs and vanish on large ones.
func BenchmarkAblationTransferShare(b *testing.B) {
	gpu := device.K20c()
	for _, scale := range []float64{0.01, 0.3} {
		scale := scale
		b.Run("scale"+ftoa(scale), func(b *testing.B) {
			mx := dataset.YahooR4.ScaledForBench(scale).Generate(3).Matrix
			var share float64
			for i := 0; i < b.N; i++ {
				res, err := kernels.Estimate(mx, kernels.Config{Device: gpu,
					Spec: kernels.FromVariant(variant.Options{Local: true, Register: true}),
					K:    10, Iterations: 5})
				if err != nil {
					b.Fatal(err)
				}
				share = res.TransferSeconds / res.Seconds()
			}
			b.ReportMetric(share*100, "transfer_pct")
		})
	}
}

// BenchmarkAblationGroupGrid: the launch-grid choice (the paper's fixed
// 8192 groups). Too few groups starve the compute units; the makespan
// stops improving once groups >> CUs.
func BenchmarkAblationGroupGrid(b *testing.B) {
	gpu := device.K20c()
	mx := dataset.Netflix.ScaledForBench(0.002).Generate(4).Matrix
	for _, groups := range []int{4, 64, 8192} {
		groups := groups
		b.Run("groups"+itoa(groups), func(b *testing.B) {
			var secs float64
			for i := 0; i < b.N; i++ {
				res, err := kernels.Estimate(mx, kernels.Config{Device: gpu,
					Spec: kernels.FromVariant(variant.Options{Local: true, Register: true}),
					K:    10, Iterations: 1, Groups: groups})
				if err != nil {
					b.Fatal(err)
				}
				secs = res.Seconds()
			}
			b.ReportMetric(secs, "sim_seconds")
		})
	}
}

func ftoa(f float64) string {
	// fixed 2-decimal formatting without fmt (keeps bench names stable)
	n := int(f*100 + 0.5)
	frac := itoa(n % 100)
	if n%100 < 10 {
		frac = "0" + frac
	}
	return itoa(n/100) + "p" + frac
}
