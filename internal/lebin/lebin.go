// Package lebin is the repository's one binary codec: little-endian
// scalars and slabs written through, or read through, a fixed 64 KiB
// scratch while a CRC-32C (Castagnoli) of every byte accumulates, and the
// same reads over a payload already in memory (Payload). Every byte the
// programs decode goes through it: checkpoints, which are also the trained
// model files (internal/checkpoint), the BSP trainer's frames
// (internal/shard), the shard hop's request and reply payloads
// (internal/serve) and span shipping (internal/rtrace). What each
// of them owns is its layout, validation and framing, not a byte loop.
//
// It is also the one place that decides whether a declared count is
// plausible, by one rule: count × element size must fit in the bytes the
// input can still supply, compared by division before anything is
// allocated (Reader.Fits). What the input can still supply
// comes from the input itself — a regular file's size, an in-memory
// reader's length, a frame's declared length (Reader.Limit), a payload's
// length — so a header is believed only as far as the bytes behind it. An
// input that cannot tell (a pipe) is held to a fixed ceiling instead.
//
// A slab — a factor matrix, a CSR array — never exists as bytes in full:
// it streams through the scratch one chunk at a time (the paper's Fig. 5
// staging buffer, on the I/O side). Errors are sticky: after the first one
// every call is a no-op (reads yield zeros) and Err reports it, so a caller
// checks once per section, before it trusts or allocates from what it read.
package lebin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
)

// scratchLen is the staging buffer's size in bytes.
const scratchLen = 1 << 16

// maxSlabElems is the largest slab an input of unknown size may declare:
// ~2G float32s is full YahooMusic R1 at k = 1000, so 4G elements is past
// any real model.
const maxSlabElems = uint64(1) << 32

// maxSlabCols bounds any slab's row width (the latent dimensionality k).
const maxSlabCols = uint64(1) << 20

// ErrCount reports a declared count whose elements the input cannot hold.
var ErrCount = errors.New("lebin: count exceeds the input")

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

// Reader decodes little-endian values from a stream, through the scratch
// while the CRC accumulates, or — made by Payload — from a payload already
// in memory and CRC-checked by its frame layer, in place and with no second
// checksum. A value that ends early is io.ErrUnexpectedEOF; io.EOF means
// a stream ended exactly where a value or slab would have begun.
type Reader struct {
	r    io.Reader // nil for a payload
	p    []byte    // a payload's unread bytes
	err  error
	crc  uint32
	left int64 // bytes the input can still supply; -1 when it cannot tell
	buf  *[scratchLen]byte
}

// NewReader reads r with the budget r gives (see Remaining). It does not
// buffer: a file goes in as it is, a connection through a bufio.Reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, left: Remaining(r), buf: new([scratchLen]byte)}
}

// Payload reads p in place: the hop's requests and replies, a shipped span
// batch. Its budget is what is left of p, and Take returns sub-slices of it.
func Payload(p []byte) Reader { return Reader{p: p, left: int64(len(p))} }

// Remaining is how many bytes r can supply: an in-memory reader's length
// (bytes.Reader, strings.Reader, bytes.Buffer, and whatever embeds one) or
// a regular file's size. -1 when r cannot tell.
func Remaining(r io.Reader) int64 {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	}
	return -1
}

// Limit sets the budget: the input holds n more bytes from here. A framed
// stream calls it with each frame's declared length.
func (r *Reader) Limit(n uint64) { r.left = int64(min(n, math.MaxInt64)) }

// Fits is the count rule. It reports whether rows × cols elements of size
// (> 0) bytes can still come from the input, and fails the reader with
// ErrCount when they cannot; a decoder calls it on every count it reads
// before it allocates. It divides, so no declared count overflows past it,
// and zero rows need no bytes, though their width is still held to 2²⁰
// columns: a decoder sizes its matrix by it. An input that cannot tell its
// size is held to at most 2³² elements of at most 2²⁰ columns instead.
func (r *Reader) Fits(rows, cols uint64, size int) bool {
	if r.err != nil {
		return false
	}
	ok := cols > 0 && cols <= maxSlabCols && rows <= maxSlabElems/cols
	if left, sz := uint64(r.left), uint64(size); r.left >= 0 {
		ok = cols > 0 && cols <= maxSlabCols && (rows == 0 || cols <= left/sz && rows <= left/(cols*sz))
	}
	if !ok {
		r.err = fmt.Errorf("%w: %d×%d elements of %d bytes, %d bytes left", ErrCount, rows, cols, size, r.left)
	}
	return ok
}

// Count reads nothing: it returns n, a count the input declared for
// elements of size bytes, if Fits holds it, and 0 otherwise.
func (r *Reader) Count(n uint64, size int) int {
	if !r.Fits(n, 1, size) {
		return 0
	}
	return int(n)
}

// Err returns the first error any call met.
func (r *Reader) Err() error { return r.err }

// Fail records err unless an error is already recorded.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Sum32 returns the CRC-32C of the bytes read since the last ResetSum.
func (r *Reader) Sum32() uint32 { return r.crc }

// ResetSum restarts the checksum, for formats that checksum per frame.
func (r *Reader) ResetSum() { r.crc = 0 }

// Bytes fills p; it reports whether it did.
func (r *Reader) Bytes(p []byte) bool {
	if r.r == nil {
		copy(p, r.Take(len(p)))
		return r.err == nil
	}
	if r.err != nil {
		return false
	}
	if _, r.err = io.ReadFull(r.r, p); r.err != nil {
		return false
	}
	r.crc = crc32.Update(r.crc, castagnoli, p)
	if r.left >= 0 {
		r.left = max(r.left-int64(len(p)), 0)
	}
	return true
}

// Take returns the next n bytes, or nil past an error: a payload's own
// bytes, or a stream's in the scratch (so at most 64 KiB, good until the
// next read).
func (r *Reader) Take(n int) []byte {
	if r.r != nil {
		if n > scratchLen {
			r.Fail(fmt.Errorf("lebin: %d bytes is more than the scratch", n))
		} else if r.Bytes(r.buf[:n]) {
			return r.buf[:n]
		}
		return nil
	}
	if n > len(r.p) {
		r.Fail(io.ErrUnexpectedEOF)
	}
	if r.err != nil {
		return nil
	}
	b := r.p[:n:n]
	r.p = r.p[n:]
	r.left = int64(len(r.p))
	return b
}

// Rest returns a payload's unread bytes, without reading them.
func (r *Reader) Rest() []byte { return r.p }

// zeros is what a scalar reads past an error.
var zeros [8]byte

// scalar returns the next n bytes, or zeros past an error.
func (r *Reader) scalar(n int) []byte {
	if b := r.Take(n); b != nil {
		return b
	}
	return zeros[:n]
}

func (r *Reader) U8() uint8    { return r.scalar(1)[0] }
func (r *Reader) U16() uint16  { return binary.LittleEndian.Uint16(r.scalar(2)) }
func (r *Reader) U32() uint32  { return binary.LittleEndian.Uint32(r.scalar(4)) }
func (r *Reader) U64() uint64  { return binary.LittleEndian.Uint64(r.scalar(8)) }
func (r *Reader) F32() float32 { return math.Float32frombits(r.U32()) }

// ReadByte makes a Reader the io.ByteReader the varint decoders take.
func (r *Reader) ReadByte() (byte, error) { return r.U8(), r.err }

// varint reads one varint with read, binary.ReadUvarint or ReadVarint.
func varint[T uint64 | int64](r *Reader, read func(io.ByteReader) (T, error)) T {
	v, err := read(r)
	if err != nil {
		r.Fail(err)
		return 0
	}
	return v
}

func (r *Reader) Uvarint() uint64 { return varint(r, binary.ReadUvarint) }
func (r *Reader) Varint() int64   { return varint(r, binary.ReadVarint) }

// UvarintAt decodes the uvarint at b[off:] in place and returns it with
// the offset just past it: binary.Uvarint's value, in a loop small enough
// to inline into a decode loop. It allocates nothing and keeps no state,
// for a coded structure read at random (sparse.Gaps). A varint longer
// than 64 bits, or one that b ends inside, reads as 0 at len(b), so a
// decode loop bounded by len(b) stops.
func UvarintAt(b []byte, off int) (v uint64, next int) {
	for s := uint(0); s < 64 && off < len(b); s += 7 {
		c := b[off]
		off++
		if c < 0x80 {
			if s == 63 && c > 1 {
				break // past 64 bits
			}
			return v | uint64(c)<<s, off
		}
		v |= uint64(c&0x7f) << s
	}
	return 0, len(b)
}

// Str reads a uvarint length and that many bytes.
func (r *Reader) Str() string { return string(r.Take(r.Count(r.Uvarint(), 1))) }

// slab reads n elements of size bytes through the scratch (in place, from
// a payload), handing get each chunk and the index of its first element.
// The input ending between two chunks is still the middle of the slab.
func (r *Reader) slab(n, size int, get func(i int, buf []byte)) {
	per := scratchLen / size
	for i := 0; i < n; {
		c := min(per, n-i)
		buf := r.Take(c * size)
		if buf == nil {
			if r.err == io.EOF && i > 0 {
				r.err = io.ErrUnexpectedEOF
			}
			return
		}
		get(i, buf)
		i += c
	}
}

func (r *Reader) F32s(dst []float32) {
	r.slab(len(dst), 4, func(i int, buf []byte) {
		d := dst[i : i+len(buf)/4]
		for j := range d {
			d[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[j*4:]))
		}
	})
}

func (r *Reader) I8s(dst []int8) {
	r.slab(len(dst), 1, func(i int, buf []byte) {
		d := dst[i : i+len(buf)]
		for j := range d {
			d[j] = int8(buf[j])
		}
	})
}

func (r *Reader) U16s(dst []uint16) {
	r.slab(len(dst), 2, func(i int, buf []byte) {
		d := dst[i : i+len(buf)/2]
		for j := range d {
			d[j] = binary.LittleEndian.Uint16(buf[j*2:])
		}
	})
}

func (r *Reader) I32s(dst []int32) {
	r.slab(len(dst), 4, func(i int, buf []byte) {
		d := dst[i : i+len(buf)/4]
		for j := range d {
			d[j] = int32(binary.LittleEndian.Uint32(buf[j*4:]))
		}
	})
}

func (r *Reader) I64s(dst []int64) {
	r.slab(len(dst), 8, func(i int, buf []byte) {
		d := dst[i : i+len(buf)/8]
		for j := range d {
			d[j] = int64(binary.LittleEndian.Uint64(buf[j*8:]))
		}
	})
}
