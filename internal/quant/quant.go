// Package quant stores factor matrices in reduced precision for serving.
// The top-N scan streams the whole item-factor matrix per request, so its
// throughput is bounded by bytes moved, not flops; per-row-scaled fp16
// and int8 encodings shrink that stream 2–4× while a widened-accumulate
// scan kernel keeps scoring quality within noise of float32 (following
// the approximate-computing results of arXiv:1808.03843).
//
// An encoding is symmetric per row: row i stores Scales[i] = f(max|v|)
// in float32 plus a compact payload, and dequantization is a single
// multiply. The scan kernels fuse dequantize, dot product and TopK push —
// a dequantized matrix is never materialized — and block four items per
// pass so the four accumulator chains hide each other's latency, the same
// shape as linalg.GramRHSFusedUnrolled blocks four nonzeros.
package quant

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/linalg"
)

// Precision names a factor storage format.
type Precision uint8

const (
	// F32 is full float32 — no quantized payload, the identity precision.
	F32 Precision = iota
	// F16 stores IEEE 754 binary16 with a per-row float32 scale.
	F16
	// I8 stores symmetric int8 (±127 range) with a per-row float32 scale.
	I8
)

// String returns the flag-level name ("f32", "f16", "i8").
func (p Precision) String() string {
	switch p {
	case F32:
		return "f32"
	case F16:
		return "f16"
	case I8:
		return "i8"
	}
	return fmt.Sprintf("precision(%d)", uint8(p))
}

// Valid reports whether p names a known precision.
func (p Precision) Valid() bool { return p <= I8 }

// Parse maps a flag value ("f32", "f16", "i8") to a Precision.
func Parse(s string) (Precision, error) {
	switch s {
	case "f32":
		return F32, nil
	case "f16":
		return F16, nil
	case "i8":
		return I8, nil
	}
	return F32, fmt.Errorf("quant: unknown precision %q (want f32, f16 or i8)", s)
}

// Matrix is a per-row-scaled quantized encoding of a row-major float32
// matrix. Exactly one payload slice is populated, matching Prec; Scales
// holds one float32 per row. Rows with all-zero entries (and rows too small
// for their scale to have a float32 inverse) store scale 0 and an all-zero
// payload, so dequantization needs no special case.
type Matrix struct {
	Prec       Precision
	Rows, Cols int
	Scales     []float32
	F16        []uint16 // Prec == F16: len Rows*Cols
	I8         []int8   // Prec == I8:  len Rows*Cols

	// MaxAbsErr is the largest absolute dequantization error |deq−orig|
	// across all elements, measured once at encode time. The serving layer
	// exports it as a gauge so operators can see the quantization cost of
	// the installed snapshot without re-reading the factors.
	MaxAbsErr float64
}

// encodeRowsPerPart is the fewest rows worth a goroutine of their own in
// EncodeDense: below it the encode is shorter than the hand-off.
const encodeRowsPerPart = 4096

// EncodeDense quantizes d at the requested precision. Inputs containing
// NaN or ±Inf are rejected: a non-finite factor would poison every score
// in its row, and the float32 training path never produces one (the guard
// layer rolls back instead), so refusing loudly beats encoding garbage.
// prec must be F16 or I8 — F32 has no quantized form.
//
// Rows are encoded independently, so a matrix of many rows is split into
// contiguous ranges over up to GOMAXPROCS goroutines: the same bytes, scales
// and MaxAbsErr (a maximum) at any count, and the error reported is the
// lowest non-finite row's.
func EncodeDense(d *linalg.Dense, prec Precision) (*Matrix, error) {
	if prec != F16 && prec != I8 {
		return nil, fmt.Errorf("quant: cannot encode at precision %v", prec)
	}
	if d == nil {
		return nil, fmt.Errorf("quant: nil matrix")
	}
	q := &Matrix{Prec: prec, Rows: d.Rows, Cols: d.Cols,
		Scales: make([]float32, d.Rows)}
	switch prec {
	case F16:
		q.F16 = make([]uint16, len(d.Data))
	case I8:
		q.I8 = make([]int8, len(d.Data))
	}
	parts := max(1, min(runtime.GOMAXPROCS(0), d.Rows/encodeRowsPerPart))
	maxErrs, errs := make([]float64, parts), make([]error, parts)
	var wg sync.WaitGroup
	for p := 1; p < parts; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			maxErrs[p], errs[p] = q.encodeRows(d, d.Rows*p/parts, d.Rows*(p+1)/parts)
		}()
	}
	maxErrs[0], errs[0] = q.encodeRows(d, 0, d.Rows/parts)
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			return nil, err
		}
		q.MaxAbsErr = max(q.MaxAbsErr, maxErrs[p])
	}
	return q, nil
}

// encodeRows fills rows [lo, hi) of q from d and returns their largest
// absolute dequantization error, or the first non-finite value's error.
func (q *Matrix) encodeRows(d *linalg.Dense, lo, hi int) (maxErr float64, err error) {
	for r := lo; r < hi; r++ {
		row := d.Row(r)
		maxAbs := float32(0)
		for c, v := range row {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return 0, fmt.Errorf("quant: non-finite value %v at (%d,%d)", v, r, c)
			}
			if a := abs32(v); a > maxAbs {
				maxAbs = a
			}
		}
		// F16 scales the row into [-1, 1]: overflow is impossible and the
		// half's relative precision (2^-11) applies uniformly.
		scale := maxAbs
		if q.Prec == I8 {
			scale = maxAbs / 127
		}
		inv := 1 / scale
		if math.IsInf(float64(inv), 0) {
			// An all-zero row — or one so small (largest magnitude denormal)
			// that its scale has no float32 inverse: scale 0 and a zero
			// payload dequantize to exact zeros, at most maxAbs off.
			maxErr = max(maxErr, float64(maxAbs))
			continue
		}
		q.Scales[r] = scale
		base := r * d.Cols
		switch q.Prec {
		case F16:
			for c, v := range row {
				h := linalg.F32ToF16(v * inv)
				q.F16[base+c] = h
				if e := math.Abs(float64(scale*linalg.F16ToF32(h)) - float64(v)); e > maxErr {
					maxErr = e
				}
			}
		case I8:
			for c, v := range row {
				iv := int32(math.RoundToEven(float64(v * inv)))
				if iv > 127 {
					iv = 127
				} else if iv < -127 {
					iv = -127
				}
				q.I8[base+c] = int8(iv)
				if e := math.Abs(float64(scale*float32(iv)) - float64(v)); e > maxErr {
					maxErr = e
				}
			}
		}
	}
	return maxErr, nil
}

// Decode materializes the dequantized matrix (evaluation and tests; the
// serving scan never calls this).
func (q *Matrix) Decode() *linalg.Dense {
	d := linalg.NewDense(q.Rows, q.Cols)
	for r := 0; r < q.Rows; r++ {
		q.decodeRow(d.Row(r), r)
	}
	return d
}

// decodeRow writes row r dequantized into dst[:Cols]: each element is
// scale·q rounded to float32. Decode and Ranked.DecodeRow both go through
// it, so a row decoded on its own is bit for bit the row Decode holds.
func (q *Matrix) decodeRow(dst []float32, r int) {
	scale := q.Scales[r]
	base := r * q.Cols
	dst = dst[:q.Cols]
	switch q.Prec {
	case F16:
		for c := range dst {
			dst[c] = scale * linalg.F16ToF32(q.F16[base+c])
		}
	case I8:
		for c := range dst {
			dst[c] = scale * float32(q.I8[base+c])
		}
	}
}

// Slice returns the zero-copy view of rows [lo, hi) — the quantized
// counterpart of slicing a Dense for a shard replica. Scales and payload
// share the parent's backing arrays; MaxAbsErr keeps the parent's bound
// (conservative for the slice).
func (q *Matrix) Slice(lo, hi int) *Matrix {
	v := &Matrix{Prec: q.Prec, Rows: hi - lo, Cols: q.Cols,
		Scales: q.Scales[lo:hi], MaxAbsErr: q.MaxAbsErr}
	switch q.Prec {
	case F16:
		v.F16 = q.F16[lo*q.Cols : hi*q.Cols]
	case I8:
		v.I8 = q.I8[lo*q.Cols : hi*q.Cols]
	}
	return v
}

// Bytes returns the payload footprint (scales + quantized elements), the
// number that replaces 4*Rows*Cols of a float32 matrix.
func (q *Matrix) Bytes() int {
	n := 4 * len(q.Scales)
	n += 2 * len(q.F16)
	n += len(q.I8)
	return n
}

// abs32 clears the sign bit: a sign test would be a coin-flip branch per
// element of EncodeDense's largest-magnitude scan.
func abs32(v float32) float32 { return math.Float32frombits(math.Float32bits(v) &^ (1 << 31)) }
