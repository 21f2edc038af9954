// Package lebin is the repository's one binary codec: little-endian
// scalars and slabs written through, or read through, a fixed 64 KiB
// scratch while a CRC-32C (Castagnoli) of every byte accumulates.
// Checkpoints, model files, the CSR container and the BSP trainer's frames
// all lay their bytes out with it; what each of them owns is its layout,
// validation and framing, not a byte loop.
//
// A slab — a factor matrix, a CSR array — never exists as bytes in full:
// it streams through the scratch one chunk at a time (the paper's Fig. 5
// staging buffer, on the I/O side). Errors are sticky: after the first one
// every call is a no-op (reads yield zeros) and Err reports it, so a caller
// checks once per section, before it trusts or allocates from what it read.
package lebin

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
)

// scratchLen is the staging buffer's size in bytes.
const scratchLen = 1 << 16

// maxSlabElems is the largest slab a header may declare: ~2G float32s is
// full YahooMusic R1 at k = 1000, so 4G elements is past any real model.
const maxSlabElems = int64(1) << 32

// maxSlabCols bounds a slab's row width (the latent dimensionality k).
const maxSlabCols = int64(1) << 20

// SlabFits reports whether a rows × cols slab declared by a header is
// plausible enough to allocate. It compares by division: the product of
// attacker-controlled dims can overflow int64 and wrap past the bound.
func SlabFits(rows, cols int64) bool {
	return cols > 0 && cols <= maxSlabCols && rows >= 0 && rows <= maxSlabElems/cols
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer encodes little-endian values onto w. It does not buffer: give it
// a bufio.Writer when the scalars should not each become a write.
type Writer struct {
	w   io.Writer
	err error
	crc uint32
	buf [scratchLen]byte
}

func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first error any call met.
func (w *Writer) Err() error { return w.err }

// Sum32 returns the CRC-32C of the bytes written since the last ResetSum.
func (w *Writer) Sum32() uint32 { return w.crc }

// ResetSum restarts the checksum, for formats that checksum per frame.
func (w *Writer) ResetSum() { w.crc = 0 }

// Bytes writes p as it is.
func (w *Writer) Bytes(p []byte) {
	if w.err != nil {
		return
	}
	if _, w.err = w.w.Write(p); w.err == nil {
		w.crc = crc32.Update(w.crc, castagnoli, p)
	}
}

func (w *Writer) U8(v uint8)    { w.Bytes(append(w.buf[:0], v)) }
func (w *Writer) U16(v uint16)  { w.Bytes(binary.LittleEndian.AppendUint16(w.buf[:0], v)) }
func (w *Writer) U32(v uint32)  { w.Bytes(binary.LittleEndian.AppendUint32(w.buf[:0], v)) }
func (w *Writer) U64(v uint64)  { w.Bytes(binary.LittleEndian.AppendUint64(w.buf[:0], v)) }
func (w *Writer) F32(v float32) { w.U32(math.Float32bits(v)) }

// Bool writes one byte, 1 for true.
func (w *Writer) Bool(v bool) {
	var b uint8
	if v {
		b = 1
	}
	w.U8(b)
}

// writeSlab streams data through the scratch, size bytes per element, put
// encoding one chunk.
func writeSlab[T any](w *Writer, data []T, size int, put func(buf []byte, src []T)) {
	per := scratchLen / size
	for len(data) > 0 && w.err == nil {
		n := min(per, len(data))
		put(w.buf[:n*size], data[:n])
		w.Bytes(w.buf[:n*size])
		data = data[n:]
	}
}

func (w *Writer) F32s(data []float32) {
	writeSlab(w, data, 4, func(buf []byte, src []float32) {
		for i, v := range src {
			binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
		}
	})
}

func (w *Writer) I8s(data []int8) {
	writeSlab(w, data, 1, func(buf []byte, src []int8) {
		for i, v := range src {
			buf[i] = byte(v)
		}
	})
}

func (w *Writer) U16s(data []uint16) {
	writeSlab(w, data, 2, func(buf []byte, src []uint16) {
		for i, v := range src {
			binary.LittleEndian.PutUint16(buf[i*2:], v)
		}
	})
}

func (w *Writer) I32s(data []int32) {
	writeSlab(w, data, 4, func(buf []byte, src []int32) {
		for i, v := range src {
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(v))
		}
	})
}

func (w *Writer) I64s(data []int64) {
	writeSlab(w, data, 8, func(buf []byte, src []int64) {
		for i, v := range src {
			binary.LittleEndian.PutUint64(buf[i*8:], uint64(v))
		}
	})
}

// Reader decodes little-endian values from r. Like Writer it does not
// buffer. A value that ends early is io.ErrUnexpectedEOF; io.EOF means the
// stream ended exactly where a value or slab would have begun.
type Reader struct {
	r   io.Reader
	err error
	crc uint32
	buf [scratchLen]byte
}

func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Err returns the first error any call met.
func (r *Reader) Err() error { return r.err }

// Sum32 returns the CRC-32C of the bytes read since the last ResetSum.
func (r *Reader) Sum32() uint32 { return r.crc }

// ResetSum restarts the checksum, for formats that checksum per frame.
func (r *Reader) ResetSum() { r.crc = 0 }

// Bytes fills p; it reports whether it did.
func (r *Reader) Bytes(p []byte) bool {
	if r.err != nil {
		return false
	}
	if _, r.err = io.ReadFull(r.r, p); r.err != nil {
		return false
	}
	r.crc = crc32.Update(r.crc, castagnoli, p)
	return true
}

// scalar reads the next n bytes into the scratch; past an error they are
// zeros.
func (r *Reader) scalar(n int) []byte {
	if !r.Bytes(r.buf[:n]) {
		clear(r.buf[:n])
	}
	return r.buf[:n]
}

func (r *Reader) U8() uint8    { return r.scalar(1)[0] }
func (r *Reader) U16() uint16  { return binary.LittleEndian.Uint16(r.scalar(2)) }
func (r *Reader) U32() uint32  { return binary.LittleEndian.Uint32(r.scalar(4)) }
func (r *Reader) U64() uint64  { return binary.LittleEndian.Uint64(r.scalar(8)) }
func (r *Reader) F32() float32 { return math.Float32frombits(r.U32()) }

// readSlab fills dst through the scratch, size bytes per element, get
// decoding one chunk. The stream ending between two chunks is still the
// middle of the slab.
func readSlab[T any](r *Reader, dst []T, size int, get func(dst []T, buf []byte)) {
	per := scratchLen / size
	for first := true; len(dst) > 0; first = false {
		n := min(per, len(dst))
		if !r.Bytes(r.buf[:n*size]) {
			if r.err == io.EOF && !first {
				r.err = io.ErrUnexpectedEOF
			}
			return
		}
		get(dst[:n], r.buf[:n*size])
		dst = dst[n:]
	}
}

func (r *Reader) F32s(dst []float32) {
	readSlab(r, dst, 4, func(dst []float32, buf []byte) {
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
		}
	})
}

func (r *Reader) I8s(dst []int8) {
	readSlab(r, dst, 1, func(dst []int8, buf []byte) {
		for i := range dst {
			dst[i] = int8(buf[i])
		}
	})
}

func (r *Reader) U16s(dst []uint16) {
	readSlab(r, dst, 2, func(dst []uint16, buf []byte) {
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint16(buf[i*2:])
		}
	})
}

func (r *Reader) I32s(dst []int32) {
	readSlab(r, dst, 4, func(dst []int32, buf []byte) {
		for i := range dst {
			dst[i] = int32(binary.LittleEndian.Uint32(buf[i*4:]))
		}
	})
}

func (r *Reader) I64s(dst []int64) {
	readSlab(r, dst, 8, func(dst []int64, buf []byte) {
		for i := range dst {
			dst[i] = int64(binary.LittleEndian.Uint64(buf[i*8:]))
		}
	})
}
