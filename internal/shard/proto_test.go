package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/lebin"
	"repro/internal/sparse"
)

// Golden wire frames, pinned byte for byte (little-endian uint64 body length,
// body = kind + payload, little-endian uint32 CRC-32C trailer). If one of
// these changes, the protocol changed and mixed-version coordinator/worker
// pairs will reject each other — bump deliberately.
const (
	goldenHelloHex = "05000000000000000103000000a090411f"                   // hello, rank 3
	goldenErrorHex = "050000000000000004626f6f6d437158b5"                   // error, "boom"
	goldenBeatHex  = "010000000000000007ba37b786"                           // heartbeat
	goldenFactsHex = "42000000000000000302000000010000000300000004000000" + // factors: iter=2 lo=1 rows=3 k=4 half=Y
		"010000003f0000c03f0000204000006040000090400000b0400000d040" +
		"0000f04000000841000018410000284100003841b64cfb88" // floats 0.5 … 11.5
	goldenDataHex = "4e0000000000000008050000000300000006000000030000000000000001" + // data: lo=5 rows=3 cols=6 nnz=3 half=Y
		"0000000000000000020000000000000002000000000000000300000000000000" + // row pointers 0 2 2 3
		"0000000004000000050000000000003f000080400000204010806597" // columns 0 4 5, values 0.5 4 2.5
)

func mustHex(t testing.TB, s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// writerWire returns a wire whose output lands in buf; the write path never
// touches the net.Conn.
func writerWire(buf *bytes.Buffer) *wire {
	bw := bufio.NewWriterSize(buf, 1<<16)
	return &wire{bw: bw, lw: lebin.NewWriter(bw)}
}

// readerWire returns a wire reading from raw bytes; the read path never
// touches the net.Conn, so a truncated stream surfaces as ErrUnexpectedEOF
// rather than blocking.
func readerWire(raw []byte) *wire {
	return &wire{lr: lebin.NewReader(bytes.NewReader(raw))}
}

func goldenFactorArgs() (h factorHeader, data []float32) {
	h = factorHeader{Iter: 2, Lo: 1, Rows: 3, K: 4, Half: halfY}
	for i := 0; i < 12; i++ {
		data = append(data, float32(i)+0.5)
	}
	return h, data
}

// goldenDataArgs is rows [5, 8) of a side with 6 columns: row 5 holds
// columns 0 and 4, row 6 nothing, row 7 column 5.
func goldenDataArgs() (lo int, s *sparse.CSR) {
	return 5, &sparse.CSR{NumRows: 3, NumCols: 6,
		RowPtr: []int64{0, 2, 2, 3}, ColIdx: []int32{0, 4, 5}, Val: []float32{0.5, 4, 2.5}}
}

func TestGoldenFrames(t *testing.T) {
	var buf bytes.Buffer
	w := writerWire(&buf)

	rank := []byte{3, 0, 0, 0}
	if err := w.writeSmall(frameHello, rank); err != nil {
		t.Fatal(err)
	}
	if err := w.writeSmall(frameError, []byte("boom")); err != nil {
		t.Fatal(err)
	}
	if err := w.writeSmall(frameHeartbeat, nil); err != nil {
		t.Fatal(err)
	}
	h, data := goldenFactorArgs()
	if err := w.writeFactors(h, data); err != nil {
		t.Fatal(err)
	}

	lo, rows := goldenDataArgs()
	if err := w.writeData(halfY, lo, rows); err != nil {
		t.Fatal(err)
	}
	// The same rows streamed out of the columns of their transpose.
	r := goldenDataTranspose(lo, rows)
	if err := w.writeColumns(halfY, r, lo, lo+rows.NumRows, &colWriter{chunk: 2}); err != nil {
		t.Fatal(err)
	}

	want := goldenHelloHex + goldenErrorHex + goldenBeatHex + goldenFactsHex + goldenDataHex + goldenDataHex
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("wire bytes changed:\n got %s\nwant %s", got, want)
	}

	// The reader must accept its own golden bytes: heartbeat skipped (with
	// the beat callback fired), control bodies returned, factors decoded.
	rd := readerWire(buf.Bytes())
	kind, body, err := rd.readSmall(nil)
	if err != nil || kind != frameHello || !bytes.Equal(body, rank) {
		t.Fatalf("hello readback: kind=%d body=%x err=%v", kind, body, err)
	}
	kind, body, err = rd.readSmall(nil)
	if err != nil || kind != frameError || string(body) != "boom" {
		t.Fatalf("error readback: kind=%d body=%q err=%v", kind, body, err)
	}
	beats := 0
	dst := make([]float32, 16)
	err = rd.expectFactors(2, halfY, 4, dst, 1, 3, func() { beats++ })
	if err != nil {
		t.Fatal(err)
	}
	if beats != 1 {
		t.Fatalf("beat callback ran %d times, want 1", beats)
	}
	for i, want := range data {
		if dst[4+i] != want {
			t.Fatalf("dst[%d] = %v, want %v", 4+i, dst[4+i], want)
		}
	}
	for range 2 {
		got, gotLo, err := rd.expectData(halfY)
		if err != nil {
			t.Fatal(err)
		}
		if gotLo != lo || !reflect.DeepEqual(got, rows) {
			t.Fatalf("data readback: lo=%d %+v, want lo=%d %+v", gotLo, got, lo, rows)
		}
	}
}

// goldenDataTranspose is the matrix whose columns [lo, lo+rows.NumRows) are
// the given rows: rows.NumCols rows, the columns before lo empty.
func goldenDataTranspose(lo int, rows *sparse.CSR) *sparse.CSR {
	full := &sparse.CSR{NumRows: lo + rows.NumRows, NumCols: rows.NumCols,
		RowPtr: make([]int64, lo, lo+rows.NumRows+1), ColIdx: rows.ColIdx, Val: rows.Val}
	full.RowPtr = append(full.RowPtr, rows.RowPtr...)
	c := full.ToCSC()
	return &sparse.CSR{NumRows: c.NumCols, NumCols: c.NumRows, RowPtr: c.ColPtr, ColIdx: c.RowIdx, Val: c.Val}
}

// TestStreamedColumnsMatchRowRange: a rank's Y frame streamed out of the
// columns of R is byte for byte the frame of its rows of the transposed
// copy, for every rank of cohorts of 1, 2, 3 and 5, with one writer reused
// throughout. The matrix has empty rows and columns, and its buffer of 16
// entries makes every frame take several chunks and leaves one 52-entry
// column longer than the buffer.
func TestStreamedColumnsMatchRowRange(t *testing.T) {
	const m, n, chunk, long = 61, 37, 16, 11
	rng := rand.New(rand.NewSource(5))
	coo := sparse.NewCOO(m, n)
	for u := 0; u < m; u++ {
		if u%7 == 3 {
			continue
		}
		for c := 0; c < n; c++ {
			if c == long || (c%5 != 1 && rng.Float64() < 0.3) {
				coo.Append(u, c, rng.Float32()*5)
			}
		}
	}
	mx, err := sparse.NewMatrix(coo)
	if err != nil {
		t.Fatal(err)
	}
	if got := mx.C.ColNNZ(long); got <= chunk {
		t.Fatalf("column %d has %d entries, want more than the %d-entry buffer", long, got, chunk)
	}
	cw := &colWriter{chunk: chunk}
	for _, workers := range []int{1, 2, 3, 5} {
		for rank := range workers {
			lo, hi := sparse.Range(n, rank, workers)
			var want, got bytes.Buffer
			if err := writerWire(&want).writeData(halfY, lo, mx.RT().RowRange(lo, hi)); err != nil {
				t.Fatal(err)
			}
			if err := writerWire(&got).writeColumns(halfY, mx.R, lo, hi, cw); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("W=%d rank %d: streamed columns [%d,%d) differ from the transpose's rows:\n got %x\nwant %x",
					workers, rank, lo, hi, got.Bytes(), want.Bytes())
			}
		}
	}
}

// TestEveryFlippedByteRejected flips one bit in every byte of each golden
// frame: the decoder must return an error for all of them — never a panic,
// never a silent accept — and any flip past the frame prologue must surface
// as the typed ErrFrameCorrupt.
func TestEveryFlippedByteRejected(t *testing.T) {
	facts := mustHex(t, goldenFactsHex)
	for pos := range facts {
		raw := append([]byte{}, facts...)
		raw[pos] ^= 0x10
		dst := make([]float32, 16)
		err := readerWire(raw).expectFactors(2, halfY, 4, dst, 1, 3, nil)
		if err == nil {
			t.Fatalf("factor frame with byte %d flipped was accepted", pos)
		}
		// Bytes after the length prefix and factor header are float payload
		// or trailer: only the checksum can catch those, and it must.
		if pos >= 9+factorHeaderLen && !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("payload flip at byte %d: err = %v, want ErrFrameCorrupt", pos, err)
		}
	}

	data := mustHex(t, goldenDataHex)
	for pos := range data {
		raw := append([]byte{}, data...)
		raw[pos] ^= 0x10
		_, _, err := readerWire(raw).expectData(halfY)
		if err == nil {
			t.Fatalf("data frame with byte %d flipped was accepted", pos)
		}
		// Past the length prefix and the kind byte a flip is in the header,
		// which the frame's own length or the checksum contradicts, or in
		// the arrays, which only the checksum covers.
		if pos >= 9 && pos != 9+dataHeaderLen-1 && !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("data frame flip at byte %d: err = %v, want ErrFrameCorrupt", pos, err)
		}
	}

	hello := mustHex(t, goldenHelloHex)
	for pos := range hello {
		raw := append([]byte{}, hello...)
		raw[pos] ^= 0x10
		_, _, err := readerWire(raw).readSmall(nil)
		if err == nil {
			t.Fatalf("hello frame with byte %d flipped was accepted", pos)
		}
		if pos >= 9 && !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("body flip at byte %d: err = %v, want ErrFrameCorrupt", pos, err)
		}
	}
}

// TestTruncatedFramesRejected cuts each golden frame at every byte boundary:
// all prefixes must error out cleanly (unexpected EOF family), never hang or
// panic.
func TestTruncatedFramesRejected(t *testing.T) {
	for _, g := range []string{goldenHelloHex, goldenBeatHex, goldenFactsHex, goldenDataHex} {
		raw := mustHex(t, g)
		for cut := 0; cut < len(raw); cut++ {
			dst := make([]float32, 16)
			if err := readerWire(raw[:cut]).expectFactors(2, halfY, 4, dst, 1, 3, nil); err == nil {
				t.Fatalf("frame %s truncated to %d bytes was accepted", g[:16], cut)
			}
			if _, _, err := readerWire(raw[:cut]).expectData(halfY); err == nil {
				t.Fatalf("frame %s truncated to %d bytes was accepted as data", g[:16], cut)
			}
			if _, _, err := readerWire(raw[:cut]).readSmall(nil); err == nil {
				t.Fatalf("frame %s truncated to %d bytes was accepted by readSmall", g[:16], cut)
			}
		}
	}
}

// TestOversizeFrameRejected pins the control-frame size limit: a declared
// multi-gigabyte body must be rejected from its header alone, not allocated.
func TestOversizeFrameRejected(t *testing.T) {
	raw := mustHex(t, goldenErrorHex)
	raw[3] = 0x40 // declared body length now ~1GiB
	if _, _, err := readerWire(raw).readSmall(nil); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversize control frame: err = %v", err)
	}

	// A data frame allocates only what its own length backs: 64 bytes on
	// the wire declaring 2^31 nonzeros (16 GiB of arrays) fail typed, before
	// any array is made. So do a header whose nonzero count would wrap the
	// length it is checked against and one declaring the largest counts it
	// can hold. The bound is the reader's fixed buffer, the codec's 64 KiB
	// scratch, and 64 KiB more.
	for _, c := range []struct {
		rows uint32
		nnz  uint64
	}{{3, 1 << 31}, {3, 1<<61 + 5}, {math.MaxUint32, math.MaxUint64}} {
		raw = mustHex(t, goldenDataHex)[:64]
		binary.LittleEndian.PutUint32(raw[9+4:], c.rows)
		binary.LittleEndian.PutUint64(raw[9+12:], c.nnz)
		nnz := c.nnz
		var err error
		allocated := allocatedBytes(func() { _, _, err = readerWire(raw).expectData(halfY) })
		if !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("data frame declaring %d nonzeros in %d bytes: err = %v, want ErrFrameCorrupt", nnz, len(raw), err)
		}
		if allocated > 64<<10+64<<10 {
			t.Fatalf("data frame declaring %d nonzeros in %d bytes allocated %d bytes before failing", nnz, len(raw), allocated)
		}
	}
}

// allocatedBytes is the heap f allocated.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWorkerFailureSurfaces pins that a frameError arriving where factors
// were expected carries the worker's own message as a workerFailure.
func TestWorkerFailureSurfaces(t *testing.T) {
	raw := mustHex(t, goldenErrorHex)
	dst := make([]float32, 16)
	err := readerWire(raw).expectFactors(2, halfY, 4, dst, 1, 3, nil)
	var wf *workerFailure
	if !errors.As(err, &wf) || !strings.Contains(wf.Error(), "boom") {
		t.Fatalf("err = %v, want a workerFailure carrying the message", err)
	}
}

// FuzzReadFrame hammers the frame decoders with arbitrary bytes. The
// invariant is total: any input either decodes or returns an error — no
// panics, no allocation past the bound below (control bodies are capped at
// maxSmallFrame; factor payloads at the expected row count; data arrays at
// the frame's own length), no hangs (the
// reader consumes at least a header per loop iteration from a finite
// stream).
func FuzzReadFrame(f *testing.F) {
	for _, g := range []string{goldenHelloHex, goldenErrorHex, goldenBeatHex, goldenFactsHex, goldenDataHex} {
		raw, err := hex.DecodeString(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)-3])
		f.Add(append(append([]byte{}, raw...), raw...))
	}
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		// A control frame may declare up to maxSmallFrame; past that, a
		// reader allocates only for bytes it read (a data frame's arrays
		// take 8 bytes in memory for each 8 on the wire).
		bound := uint64(maxSmallFrame + 64<<10 + 8*len(data))
		dst := make([]float32, 16)
		for name, read := range map[string]func(w *wire) error{
			"readSmall":     func(w *wire) error { _, _, err := w.readSmall(nil); return err },
			"expectFactors": func(w *wire) error { return w.expectFactors(2, halfY, 4, dst, 1, 3, nil) },
			"expectData":    func(w *wire) error { _, _, err := w.expectData(halfY); return err },
		} {
			w := readerWire(data)
			var err error
			if n := allocatedBytes(func() { err = read(w) }); n > bound {
				t.Fatalf("%s: a %d-byte stream allocated %d bytes", name, len(data), n)
			}
			if err != nil {
				_ = err.Error()
			}
		}
	})
}
