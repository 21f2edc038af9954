package quant

import (
	"math"
	"math/rand"
	"slices"
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
	// scores from the blocked kernel and the int16 screen behind the
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
		screen := metrics.NewScreen(y)
		for i := 0; i < b.N; i++ {
			t := metrics.NewTopK(n)
			var wide [k]float64
			var levels [metrics.MaxScreenK]int16
			metrics.ScanTopK(metrics.PrepareScan(x, wide[:], levels[:], screen), y, 0, rows, nil, t)
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

// BenchmarkRankedScan is the catalog request's scan: a 50 000 × 64 int8
// payload, n = 10, one op one request for the next of 64 users. Rows are
// signed Gaussians scaled by (1+rank)^-0.275 for a shuffled rank, and a
// user factor sums five rows: the stop rule then ends a scan after about a
// third of the rows, so both the kernel's walk and its returns to scanI8
// show. "rated" excludes 144 items per user (the catalog's mean row length)
// drawn toward the strongest rows, through a binary search as serve's
// excluder does.
func BenchmarkRankedScan(b *testing.B) {
	const rows, k, n, users, rated = 50000, 64, 10, 64, 144
	rng := rand.New(rand.NewSource(1))
	d := linalg.NewDense(rows, k)
	for i, rank := range rng.Perm(rows) {
		scale := math.Pow(float64(1+rank), -0.275)
		for c := range d.Row(i) {
			d.Data[i*k+c] = float32(rng.NormFloat64() * scale)
		}
	}
	m, err := EncodeDense(d, I8)
	if err != nil {
		b.Fatal(err)
	}
	r := Rank(m)
	queries, excluders := make([]Query, users), make([]func(int) bool, users)
	for u := range queries {
		x := make([]float32, k)
		for _, i := range rng.Perm(rows)[:5] {
			for c, v := range d.Row(i) {
				x[c] += v
			}
		}
		queries[u] = r.Prepare(x)
		seen := map[int]bool{}
		for len(seen) < rated {
			seen[int(r.ID[int(rows*math.Pow(rng.Float64(), 3))])] = true
		}
		items := make([]int, 0, rated)
		for i := range seen {
			items = append(items, i)
		}
		slices.Sort(items)
		excluders[u] = func(i int) bool { _, ok := slices.BinarySearch(items, i); return ok }
	}
	for _, c := range []struct {
		name     string
		excluded func(u int) func(int) bool
	}{
		{"all", func(int) func(int) bool { return nil }},
		{"rated", func(u int) func(int) bool { return excluders[u] }},
	} {
		b.Run(c.name, func(b *testing.B) {
			t := metrics.NewTopK(n)
			scored := 0
			for i := 0; i < b.N; i++ {
				t.Reset()
				u := i % users
				scored += r.ScanTopK(queries[u], 0, rows, c.excluded(u), t)
			}
			b.ReportMetric(float64(scored)/float64(b.N), "rows/op")
		})
	}
}
