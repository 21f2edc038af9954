package lebin_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/lebin"
)

// oracle is the reflection codec the containers used to call: it stays in
// the tree as what the streaming methods are compared against.
func oracle(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func crc32c(p []byte) uint32 { return crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)) }

// slabCase is one slab method pair under test, its values drawn from gen.
type slabCase[T comparable] struct {
	name  string
	size  int
	gen   func(i int) T
	write func(*lebin.Writer, []T)
	read  func(*lebin.Reader, []T)
}

func (c slabCase[T]) data(n int) []T {
	d := make([]T, n)
	for i := range d {
		d[i] = c.gen(i)
	}
	return d
}

// lengths are the element counts around one scratch-full.
func (c slabCase[T]) lengths() []int {
	per := lebin.ScratchLen / c.size
	return []int{0, 1, per - 1, per, per + 1, 2*per + 3}
}

var (
	f32s = slabCase[float32]{"F32s", 4,
		// All exponents, NaN payloads among them: a float crosses as its bits.
		func(i int) float32 { return math.Float32frombits(uint32(i)*0x9E3779B1 | 1) },
		(*lebin.Writer).F32s, (*lebin.Reader).F32s}
	i8s = slabCase[int8]{"I8s", 1,
		func(i int) int8 { return int8(i * 7) },
		(*lebin.Writer).I8s, (*lebin.Reader).I8s}
	u16s = slabCase[uint16]{"U16s", 2,
		func(i int) uint16 { return uint16(i * 40503) },
		(*lebin.Writer).U16s, (*lebin.Reader).U16s}
	i32s = slabCase[int32]{"I32s", 4,
		func(i int) int32 { return int32(uint32(i) * 0x9E3779B1) },
		(*lebin.Writer).I32s, (*lebin.Reader).I32s}
	i64s = slabCase[int64]{"I64s", 8,
		func(i int) int64 { return int64(uint64(i) * 0x9E3779B97F4A7C15) },
		(*lebin.Writer).I64s, (*lebin.Reader).I64s}
)

// checkSlab pins one slab method pair byte for byte against binary.Write at
// every boundary length, checksum included, and reads the bytes back.
func checkSlab[T comparable](t *testing.T, c slabCase[T]) {
	for _, n := range c.lengths() {
		data := c.data(n)
		want := oracle(t, data)
		var buf bytes.Buffer
		w := lebin.NewWriter(&buf)
		c.write(w, data)
		if err := w.Err(); err != nil {
			t.Fatalf("%s len %d: %v", c.name, n, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s len %d: bytes differ from binary.Write", c.name, n)
		}
		if w.Sum32() != crc32c(want) {
			t.Fatalf("%s len %d: writer CRC %08x, want %08x", c.name, n, w.Sum32(), crc32c(want))
		}
		got := make([]T, n)
		r := lebin.NewReader(bytes.NewReader(want))
		c.read(r, got)
		if err := r.Err(); err != nil {
			t.Fatalf("%s len %d: read: %v", c.name, n, err)
		}
		if !bytes.Equal(oracle(t, got), want) {
			t.Fatalf("%s len %d: read back different elements", c.name, n)
		}
		if r.Sum32() != crc32c(want) {
			t.Fatalf("%s len %d: reader CRC %08x, want %08x", c.name, n, r.Sum32(), crc32c(want))
		}
	}
}

func TestSlabsMatchBinaryWrite(t *testing.T) {
	checkSlab(t, f32s)
	checkSlab(t, i8s)
	checkSlab(t, u16s)
	checkSlab(t, i32s)
	checkSlab(t, i64s)
}

func TestScalarsMatchBinaryWrite(t *testing.T) {
	type layout struct {
		A uint8
		B uint16
		C uint32
		D uint64
		E float32
		F bool
		G bool
	}
	v := layout{0xA1, 0xB2B1, 0xC4C3C2C1, 0xD8D7D6D5D4D3D2D1, -1.5, true, false}
	want := append(oracle(t, v), "tail"...)
	var buf bytes.Buffer
	w := lebin.NewWriter(&buf)
	w.U8(v.A)
	w.U16(v.B)
	w.U32(v.C)
	w.U64(v.D)
	w.F32(v.E)
	w.Bool(v.F)
	w.Bool(v.G)
	w.Bytes([]byte("tail"))
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("scalars: got %x, want %x", buf.Bytes(), want)
	}
	r := lebin.NewReader(bytes.NewReader(want))
	got := layout{r.U8(), r.U16(), r.U32(), r.U64(), r.F32(), r.U8() == 1, r.U8() == 1}
	tail := make([]byte, 4)
	if !r.Bytes(tail) || got != v || string(tail) != "tail" {
		t.Fatalf("scalars read back %+v %q (err %v), want %+v", got, tail, r.Err(), v)
	}
	if w.Sum32() != crc32c(want) || r.Sum32() != crc32c(want) {
		t.Fatalf("CRC: writer %08x reader %08x, want %08x", w.Sum32(), r.Sum32(), crc32c(want))
	}
	w.ResetSum()
	r.ResetSum()
	if w.Sum32() != 0 || r.Sum32() != 0 {
		t.Fatal("ResetSum left a checksum behind")
	}
	// Past the end every read is zero and the first error stays.
	if r.U32() != 0 || r.Err() != io.EOF || r.U8() != 0 || r.Err() != io.EOF {
		t.Fatalf("reads past the end: err = %v", r.Err())
	}
}

// cuts are the byte offsets a fault sweep over an n-byte stream visits,
// whose second slab starts at byte second: every offset near the start, the
// end, the slab boundary and each scratch boundary of either slab, and a
// stride between them.
func cuts(n, second int) []int {
	var out []int
	for c := 0; c <= n; c++ {
		inSlab := (c - second + lebin.ScratchLen) % lebin.ScratchLen
		near := c < 20 || n-c < 20 || inSlab < 3 || inSlab > lebin.ScratchLen-3
		if near || c%4099 == 0 {
			out = append(out, c)
		}
	}
	return out
}

// TestShortWriteSweep dies at byte N of a two-slab stream for N across the
// sweep: the file must hold exactly the first N bytes of the reference
// encoding, the writer must report the injected fault, and nothing may be
// written after it.
func TestShortWriteSweep(t *testing.T) {
	scales, payload := f32s.data(700), i8s.data(lebin.ScratchLen+5)
	want := append(oracle(t, scales), oracle(t, payload)...)
	for _, cut := range cuts(len(want)-1, 4*len(scales)) {
		if cut == 0 {
			continue // FailWriteAfter 0 disarms the fault
		}
		fs := checkpoint.NewMemFS()
		f, err := fs.Create("slab")
		if err != nil {
			t.Fatal(err)
		}
		fs.SetFaults(checkpoint.Faults{FailWriteAfter: int64(cut)})
		w := lebin.NewWriter(f)
		w.F32s(scales)
		w.I8s(payload)
		w.U32(w.Sum32())
		if !errors.Is(w.Err(), checkpoint.ErrInjected) {
			t.Fatalf("cut %d: err = %v, want the injected fault", cut, w.Err())
		}
		got, _ := fs.ReadFile("slab")
		if !bytes.Equal(got, want[:cut]) {
			t.Fatalf("cut %d: file holds %d bytes that are not the encoding's first %d", cut, len(got), cut)
		}
	}
}

// TestShortReadSweep truncates the same stream at byte N: the reader must
// fail with io.ErrUnexpectedEOF — io.EOF only where a slab would have begun
// — and every element decoded before the cut chunk must be right.
func TestShortReadSweep(t *testing.T) {
	scales, payload := f32s.data(700), i8s.data(lebin.ScratchLen+5)
	want := append(oracle(t, scales), oracle(t, payload)...)
	for _, cut := range cuts(len(want)-1, 4*len(scales)) {
		fs := checkpoint.NewMemFS()
		fs.WriteFile("slab", want[:cut])
		f, err := fs.Open("slab")
		if err != nil {
			t.Fatal(err)
		}
		r := lebin.NewReader(f)
		gotScales, gotPayload := make([]float32, len(scales)), make([]int8, len(payload))
		r.F32s(gotScales)
		r.I8s(gotPayload)
		wantErr := io.ErrUnexpectedEOF
		if cut == 0 || cut == 4*len(scales) {
			wantErr = io.EOF
		}
		if r.Err() != wantErr {
			t.Fatalf("cut %d: err = %v, want %v", cut, r.Err(), wantErr)
		}
		if cut >= 4*len(scales) {
			for i, v := range gotScales {
				if math.Float32bits(v) != math.Float32bits(scales[i]) {
					t.Fatalf("cut %d: scale %d wrong", cut, i)
				}
			}
			whole := (cut - 4*len(scales)) / lebin.ScratchLen * lebin.ScratchLen
			if !bytes.Equal(oracle(t, gotPayload[:whole]), oracle(t, payload[:whole])) {
				t.Fatalf("cut %d: payload before the cut chunk wrong", cut)
			}
		}
	}
}

func TestSlabFits(t *testing.T) {
	for _, c := range []struct {
		rows, cols int64
		want       bool
	}{
		{0, 1, true},
		{20000, 64, true},
		{1 << 32, 1, true},
		{1<<32 + 1, 1, false},
		{1 << 12, 1 << 20, true},
		{1<<12 + 1, 1 << 20, false},
		{1, 1<<20 + 1, false},
		{1, 0, false},
		{-1, 8, false},
		{8, -1, false},
		{math.MaxInt64, math.MaxInt64, false}, // the product wraps
		{1 << 40, 1 << 30, false},
	} {
		if got := lebin.SlabFits(c.rows, c.cols); got != c.want {
			t.Errorf("SlabFits(%d, %d) = %v, want %v", c.rows, c.cols, got, c.want)
		}
	}
}

// TestFitsBoundsWidth: on an input of known size, zero rows need no bytes
// but their width is still held to 2²⁰ columns, which a decoder converts
// to an int to size its matrix.
func TestFitsBoundsWidth(t *testing.T) {
	for _, c := range []struct {
		rows, cols uint64
		want       bool
	}{
		{0, 1 << 20, true},
		{0, 1<<20 + 1, false},
		{0, 1 << 63, false},
		{1, 1 << 20, false}, // needs 4 MiB; the input holds 16 bytes
		{2, 2, true},
	} {
		r := lebin.NewReader(bytes.NewReader(make([]byte, 16)))
		if got := r.Fits(c.rows, c.cols, 4); got != c.want || (r.Err() == nil) != c.want {
			t.Errorf("Fits(%d, %d, 4) on 16 bytes = %v (err %v), want %v", c.rows, c.cols, got, r.Err(), c.want)
		}
	}
}

// TestUvarintAtMatchesUvarint: UvarintAt reads what binary.Uvarint reads,
// walking a run of varints in place, and a varint that overflows 64 bits
// or that the input ends inside reads as 0 at the end of the input.
func TestUvarintAtMatchesUvarint(t *testing.T) {
	vals := []uint64{0, 1, 127, 128, 300, 16383, 16384, 1<<31 - 2, 1 << 63, math.MaxUint64}
	var b []byte
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	for i, off := 0, 0; off < len(b); i++ {
		want, n := binary.Uvarint(b[off:])
		v, next := lebin.UvarintAt(b, off)
		if v != want || v != vals[i] || next != off+n {
			t.Fatalf("varint %d at %d: got (%d, %d), want (%d, %d)", i, off, v, next, want, off+n)
		}
		off = next
	}
	for _, bad := range [][]byte{
		{0x80},
		{0xff, 0xff},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		if _, n := binary.Uvarint(bad); n > 0 {
			t.Fatalf("% x is a valid varint", bad)
		}
		if v, next := lebin.UvarintAt(bad, 0); v != 0 || next != len(bad) {
			t.Errorf("% x: got (%d, %d), want (0, %d)", bad, v, next, len(bad))
		}
	}
}
