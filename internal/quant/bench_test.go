package quant

import (
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/metrics"
)

// BenchmarkScan compares the quantized scan kernels against the float32
// scan at the YMR4 serving shape (≈12k items, k=10): one op
// is one full-catalog top-10 scan, the per-request unit of serving work.
func BenchmarkScan(b *testing.B) {
	const rows, k, n = 11916, 10, 10
	rng := rand.New(rand.NewSource(1))
	y := randDense(rng, rows, k, 1.0)
	x := make([]float32, k)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}

	// f32-reference is the row-at-a-time loop evaluation scores with
	// (metrics.TopN); f32 is the serving scan, metrics.ScanTopK: the same
	// scores from the blocked kernel and the float32 screen behind the
	// threshold-first sink.
	b.Run("f32-reference", func(b *testing.B) {
		b.SetBytes(int64(4 * rows * k))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := metrics.NewTopK(n)
			for r := 0; r < rows; r++ {
				t.Push(r, linalg.Dot(x, y.Row(r)))
			}
		}
	})
	b.Run("f32", func(b *testing.B) {
		b.SetBytes(int64(4 * rows * k))
		b.ReportAllocs()
		maxNorm := linalg.MaxRowNorm(y)
		for i := 0; i < b.N; i++ {
			t := metrics.NewTopK(n)
			var buf [k]float64
			metrics.ScanTopK(metrics.PrepareScan(x, buf[:], maxNorm), y, 0, rows, nil, t)
		}
	})
	for _, prec := range []Precision{F16, I8} {
		q, err := EncodeDense(y, prec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(prec.String(), func(b *testing.B) {
			b.SetBytes(int64(q.Bytes()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t := metrics.NewTopK(n)
				q.ScanTopK(q.Prepare(x), 0, rows, nil, t)
			}
		})
	}
}

// BenchmarkEncodeDense quantizes the catalog benchmark's item factors
// (50 000 × 64), what every i8 or f16 checkpoint and every hot-swap pays:
// run with -cpu 1,2 to see the row split.
func BenchmarkEncodeDense(b *testing.B) {
	const rows, k = 50000, 64
	y := randDense(rand.New(rand.NewSource(1)), rows, k, 1.0)
	for _, prec := range []Precision{I8, F16} {
		b.Run(prec.String(), func(b *testing.B) {
			b.SetBytes(4 * rows * k)
			for i := 0; i < b.N; i++ {
				if _, err := EncodeDense(y, prec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDot4I8 times the serving scan's int8 block kernel against the
// portable Go loop on a 50 000 × 64 payload (the catalog benchmark's item
// factors): one op is one pass over every row, four rows per call.
func BenchmarkDot4I8(b *testing.B) {
	const rows, k = 50000, 64
	rng := rand.New(rand.NewSource(1))
	payload, xq := make([]int8, rows*k), make([]int8, k)
	for i := range payload {
		payload[i] = int8(rng.Intn(255) - 127)
	}
	for i := range xq {
		xq[i] = int8(rng.Intn(255) - 127)
	}
	for _, c := range []struct {
		name string
		dot  func(xq, rows []int8, k int) (s0, s1, s2, s3 int32)
	}{{"kernel", dot4I8}, {"portable", dot4I8Portable}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(rows * k)
			var sum int32
			for i := 0; i < b.N; i++ {
				for r := 0; r+4 <= rows; r += 4 {
					s0, s1, s2, s3 := c.dot(xq, payload[r*k:], k)
					sum += s0 + s1 + s2 + s3
				}
			}
			dotSink = sum
		})
	}
}

var dotSink int32
