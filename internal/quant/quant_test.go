package quant

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/linalg"
	"repro/internal/metrics"
)

func randDense(rng *rand.Rand, rows, cols int, spread float64) *linalg.Dense {
	d := linalg.NewDense(rows, cols)
	for i := range d.Data {
		d.Data[i] = float32((rng.Float64()*2 - 1) * spread)
	}
	return d
}

// TestRoundTripErrorBounds is the encode→decode property: every element's
// dequantization error is bounded by its row scale — half an integer step
// for int8, half an ulp of the 10-bit half mantissa for fp16 — and
// MaxAbsErr reports the true maximum.
func TestRoundTripErrorBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, prec := range []Precision{F16, I8} {
		for trial := 0; trial < 20; trial++ {
			rows, cols := 1+rng.Intn(40), 1+rng.Intn(32)
			spread := math.Pow(10, float64(rng.Intn(7)-3)) // 1e-3 .. 1e3
			d := randDense(rng, rows, cols, spread)
			q, err := EncodeDense(d, prec)
			if err != nil {
				t.Fatalf("%v: EncodeDense: %v", prec, err)
			}
			back := q.Decode()
			worst := 0.0
			for r := 0; r < rows; r++ {
				scale := float64(q.Scales[r])
				var bound float64
				switch prec {
				case I8:
					// Nearest-integer rounding: half a step, plus float32
					// rounding slop from the scale divide/multiply.
					bound = scale * 0.5 * (1 + 1e-5)
				case F16:
					// Values are scaled into [-1,1]; RNE in binary16 moves a
					// value by at most 2^-11 relative, so 2^-11 absolute
					// after rescaling (plus float32 slop).
					bound = scale * 0x1p-11 * (1 + 1e-5)
				}
				for c := 0; c < cols; c++ {
					e := math.Abs(float64(back.At(r, c)) - float64(d.At(r, c)))
					if e > bound {
						t.Fatalf("%v trial %d: error %g at (%d,%d) exceeds bound %g (scale %g)",
							prec, trial, e, r, c, bound, scale)
					}
					if e > worst {
						worst = e
					}
				}
			}
			if math.Abs(worst-q.MaxAbsErr) > 1e-12 {
				t.Fatalf("%v: MaxAbsErr = %g, measured worst = %g", prec, q.MaxAbsErr, worst)
			}
		}
	}
}

func TestAllZeroRows(t *testing.T) {
	d := linalg.NewDense(3, 4)
	d.Data[4] = 2.5 // row 1 nonzero; rows 0 and 2 all-zero
	for _, prec := range []Precision{F16, I8} {
		q, err := EncodeDense(d, prec)
		if err != nil {
			t.Fatalf("%v: %v", prec, err)
		}
		if q.Scales[0] != 0 || q.Scales[2] != 0 {
			t.Errorf("%v: zero rows got scales %v", prec, q.Scales)
		}
		back := q.Decode()
		for _, r := range []int{0, 2} {
			for c := 0; c < 4; c++ {
				if back.At(r, c) != 0 {
					t.Errorf("%v: zero row %d decoded to %v", prec, r, back.Row(r))
				}
			}
		}
		if got := back.At(1, 0); math.Abs(float64(got)-2.5) > 2.5*0x1p-7 {
			t.Errorf("%v: nonzero row decoded to %v", prec, got)
		}
	}
}

// TestDenormalRowsEncodeAsZero: a row whose largest magnitude is denormal has
// a scale with no float32 inverse (1/maxAbs, or 127/maxAbs, is +Inf). It is
// stored as the zero row — scale 0, zero payload, decoding to exact zeros at
// most maxAbs off — instead of Inf/NaN halves or int32(±Inf) bytes; rows
// beside it are untouched, and the smallest rows that do have an inverse
// still round-trip.
func TestDenormalRowsEncodeAsZero(t *testing.T) {
	for _, tc := range []struct {
		name   string
		row    []float32
		zeroAt []Precision // precisions at which the row has no inverse scale
	}{
		{"far denormal", []float32{1e-44, 0, -1e-44, 5e-45}, []Precision{F16, I8}},
		{"smallest denormal", []float32{0, math.SmallestNonzeroFloat32, 0, 0}, []Precision{F16, I8}},
		{"2^-129", []float32{0x1p-129, -0x1p-130, 0, 0}, []Precision{F16, I8}},
		{"smallest normal", []float32{0x1p-126, -0x1p-127, 0, 0x1p-126}, []Precision{I8}}, // ÷127 is denormal
		{"2^-118", []float32{0x1p-118, -0x1p-119, 0, 0x1p-120}, nil},
	} {
		d := linalg.NewDense(3, 4)
		copy(d.Row(0), []float32{1, -2, 3, -4})
		copy(d.Row(1), tc.row)
		copy(d.Row(2), []float32{0.5, 0.25, -0.125, 0})
		var maxAbs float64
		for _, v := range tc.row {
			maxAbs = math.Max(maxAbs, math.Abs(float64(v)))
		}
		for _, prec := range []Precision{F16, I8} {
			q, err := EncodeDense(d, prec)
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, prec, err)
			}
			if math.IsNaN(q.MaxAbsErr) || math.IsInf(q.MaxAbsErr, 0) {
				t.Errorf("%s %v: MaxAbsErr = %v", tc.name, prec, q.MaxAbsErr)
			}
			back := q.Decode()
			wantZero := false
			for _, p := range tc.zeroAt {
				wantZero = wantZero || p == prec
			}
			for c, v := range back.Row(1) {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("%s %v: decoded row %v is not finite", tc.name, prec, back.Row(1))
				}
				if e := math.Abs(float64(v) - float64(tc.row[c])); e > maxAbs || e > q.MaxAbsErr {
					t.Errorf("%s %v: column %d decodes to %g for %g: off by more than the row's maxAbs %g or MaxAbsErr %g",
						tc.name, prec, c, v, tc.row[c], maxAbs, q.MaxAbsErr)
				}
				if wantZero && (v != 0 || q.Scales[1] != 0) {
					t.Errorf("%s %v: want the zero row, got scale %g value %g", tc.name, prec, q.Scales[1], v)
				}
			}
			if !wantZero && q.Scales[1] == 0 {
				t.Errorf("%s %v: a row with an invertible scale was zeroed", tc.name, prec)
			}
			only := linalg.NewDense(2, 4)
			copy(only.Row(0), d.Row(0))
			copy(only.Row(1), d.Row(2))
			ref, _ := EncodeDense(only, prec)
			if rb := ref.Decode(); !equalRows(back.Row(0), rb.Row(0)) || !equalRows(back.Row(2), rb.Row(1)) {
				t.Errorf("%s %v: the rows beside the denormal one changed", tc.name, prec)
			}
		}
	}
}

func equalRows(a, b []float32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

// TestEncodeDenseSplitsWithoutAChange: the encoding of a matrix tall enough
// to be split over goroutines is the single-goroutine encoding — payload,
// scales and MaxAbsErr — at every row count around the split sizes and every
// GOMAXPROCS, and of two non-finite values the one in the lower row is
// reported, whichever goroutine met its own first.
func TestEncodeDenseSplitsWithoutAChange(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, rows := range []int{0, 1, encodeRowsPerPart - 1, encodeRowsPerPart, 2*encodeRowsPerPart + 1, 50001} {
		d := randDense(rng, rows, 7, 3)
		if rows > 2 {
			clear(d.Row(rows / 2))           // a zero row
			d.Row(rows - 1)[3] = 1e-44       // a denormal one
			d.Row(rows / 3)[0] = 1e3         // the one MaxAbsErr comes from
			d.Row(rows / 3)[1] = 1e3 / 254.5 // half a step off at i8
		}
		for _, prec := range []Precision{F16, I8} {
			runtime.GOMAXPROCS(1)
			want, err := EncodeDense(d, prec)
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{2, 4} {
				runtime.GOMAXPROCS(procs)
				got, err := EncodeDense(d, prec)
				if err != nil {
					t.Fatal(err)
				}
				if got.MaxAbsErr != want.MaxAbsErr || !equalRows(got.Scales, want.Scales) ||
					string(i8Bytes(got.I8)) != string(i8Bytes(want.I8)) || !equalU16(got.F16, want.F16) {
					t.Errorf("rows=%d %v GOMAXPROCS=%d: encoding differs from the single-goroutine one (MaxAbsErr %g vs %g)",
						rows, prec, procs, got.MaxAbsErr, want.MaxAbsErr)
				}
			}
		}
		if rows < 2*encodeRowsPerPart {
			continue
		}
		lo, hi := rows/2-1, rows-2 // in the first and the last part of any split
		d.Row(hi)[2] = float32(math.NaN())
		d.Row(lo)[5] = float32(math.Inf(-1))
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			_, err := EncodeDense(d, I8)
			if want := fmt.Sprintf("quant: non-finite value -Inf at (%d,5)", lo); err == nil || err.Error() != want {
				t.Errorf("rows=%d GOMAXPROCS=%d: error %v, want %q", rows, procs, err, want)
			}
		}
	}
}

func i8Bytes(s []int8) []byte {
	b := make([]byte, len(s))
	for i, v := range s {
		b[i] = byte(v)
	}
	return b
}

func equalU16(a, b []uint16) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

func TestNonFiniteRejected(t *testing.T) {
	bad := []float32{
		float32(math.NaN()),
		float32(math.Inf(1)),
		float32(math.Inf(-1)),
	}
	for _, prec := range []Precision{F16, I8} {
		for _, v := range bad {
			d := linalg.NewDense(2, 3)
			d.Data[4] = v
			if _, err := EncodeDense(d, prec); err == nil {
				t.Errorf("%v: EncodeDense accepted %v", prec, v)
			}
		}
	}
}

func TestEncodeRejectsF32(t *testing.T) {
	if _, err := EncodeDense(linalg.NewDense(1, 1), F32); err == nil {
		t.Error("EncodeDense(F32) should fail: f32 has no quantized form")
	}
}

func TestPrecisionParse(t *testing.T) {
	for _, p := range []Precision{F32, F16, I8} {
		got, err := Parse(p.String())
		if err != nil || got != p {
			t.Errorf("Parse(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := Parse("f64"); err == nil {
		t.Error("Parse(\"f64\") should fail")
	}
}

// TestScanMatchesScore cross-checks the blocked ScanTopK kernel against
// the scalar Score path and against a float64 reference computed from the
// decoded matrix: identical item sets and, for int8, bit-identical scores
// (integer accumulation is exact).
func TestScanMatchesScore(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, prec := range []Precision{F16, I8} {
		d := randDense(rng, 137, 12, 1.0) // odd row count exercises the tail
		q, err := EncodeDense(d, prec)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float32, 12)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		qr := q.Prepare(x)
		tk := metrics.NewTopK(q.Rows)
		q.ScanTopK(qr, 0, q.Rows, nil, tk)
		got := tk.Drain()
		if len(got) != q.Rows {
			t.Fatalf("%v: scan returned %d of %d items", prec, len(got), q.Rows)
		}
		for _, s := range got {
			if want := q.Score(qr, s.Item); s.Score != want {
				t.Errorf("%v: item %d scan score %v != scalar score %v", prec, s.Item, s.Score, want)
			}
		}
		// The scan must agree with a plain float32 dot over the decoded
		// matrix to within accumulation-order noise.
		deq := q.Decode()
		for _, s := range got {
			ref := linalg.Dot(x, deq.Row(s.Item))
			tol := 1e-4 * (1 + math.Abs(ref))
			if prec == I8 {
				tol = 0.1 * (1 + math.Abs(ref)) // the query itself is quantized
			}
			if math.Abs(s.Score-ref) > tol {
				t.Errorf("%v: item %d score %v vs f32 reference %v", prec, s.Item, s.Score, ref)
			}
		}
	}
}

// TestScanExclusionAndTieBreak pins that exclusion predicates are honored
// and that equal scores resolve toward the lower item index, exactly like
// the float32 scorer (metrics.TopK does the tie-breaking for both).
func TestScanExclusionAndTieBreak(t *testing.T) {
	d := linalg.NewDense(9, 2)
	for r := 0; r < 9; r++ {
		d.Data[r*2] = 1 // identical rows → identical scores
	}
	for _, prec := range []Precision{F16, I8} {
		q, err := EncodeDense(d, prec)
		if err != nil {
			t.Fatal(err)
		}
		got := q.TopN([]float32{2, 0}, func(i int) bool { return i == 0 || i == 5 }, 4)
		want := []int{1, 2, 3, 4} // ties → ascending index, excluded skipped
		if len(got) != len(want) {
			t.Fatalf("%v: got %d items", prec, len(got))
		}
		for i, s := range got {
			if s.Item != want[i] {
				t.Errorf("%v: rank %d = item %d, want %d", prec, i, s.Item, want[i])
			}
		}
	}
}

func TestSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randDense(rng, 50, 8, 2.0)
	x := make([]float32, 8)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	for _, prec := range []Precision{F16, I8} {
		q, err := EncodeDense(d, prec)
		if err != nil {
			t.Fatal(err)
		}
		v := q.Slice(10, 30)
		if v.Rows != 20 || v.Cols != 8 {
			t.Fatalf("%v: slice dims %dx%d", prec, v.Rows, v.Cols)
		}
		qr, vr := q.Prepare(x), v.Prepare(x)
		for i := 0; i < 20; i++ {
			if got, want := v.Score(vr, i), q.Score(qr, 10+i); got != want {
				t.Errorf("%v: slice row %d scores %v, parent row %d scores %v", prec, i, got, 10+i, want)
			}
		}
	}
}

// TestScanZeroAllocs is the zero-allocation regression gate: with the
// query prepared and the heap warm, a full ScanTopK pass must not
// allocate (same discipline as host.RowUpdateAllocs for training).
func TestScanZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := randDense(rng, 4096, 16, 1.0)
	x := make([]float32, 16)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	excluded := func(i int) bool { return i%17 == 0 }
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, prec := range []Precision{F16, I8} {
		q, err := EncodeDense(d, prec)
		if err != nil {
			t.Fatal(err)
		}
		qr := q.Prepare(x)
		tk := metrics.NewTopK(10)
		q.ScanTopK(qr, 0, q.Rows, excluded, tk) // warm the heap to steady state
		allocs := testing.AllocsPerRun(10, func() {
			q.ScanTopK(qr, 0, q.Rows, excluded, tk)
		})
		if allocs != 0 {
			t.Errorf("%v: ScanTopK allocates %v times per scan, want 0", prec, allocs)
		}
	}
}

func TestBytes(t *testing.T) {
	d := linalg.NewDense(10, 4)
	f16, _ := EncodeDense(d, F16)
	i8, _ := EncodeDense(d, I8)
	if got, want := f16.Bytes(), 10*4+10*4*2; got != want {
		t.Errorf("f16 Bytes = %d, want %d", got, want)
	}
	if got, want := i8.Bytes(), 10*4+10*4; got != want {
		t.Errorf("i8 Bytes = %d, want %d", got, want)
	}
}
