package shard

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/framing"
	"repro/internal/lebin"
	"repro/internal/sparse"
)

// The trainer's exchange protocol: every frame is a little-endian uint64
// body length, the body (whose first byte names the frame kind), and a
// little-endian uint32 CRC-32C of the body (the layout constants and the
// hello payload are package framing's, shared with chaosnet and with the
// serving fleet's shard hop). The checksum rides as a trailer, not a
// header, so a multi-megabyte factor frame still streams through the
// scratch buffer with the CRC accumulated chunk by chunk — no frame-sized
// staging copy on either end. A mismatched trailer surfaces as the typed
// ErrFrameCorrupt, which the supervisor treats as a worker failure rather
// than silently assembling a wrong model.
//
// Factor frames carry a fixed 17-byte header (iteration, half, first row,
// row count, k) and then rows·k raw little-endian float32s, so a full factor
// matrix moves as one frame with no per-row framing. Data frames carry a
// rank's rows of one side of the rating matrix the same way: a fixed 21-byte
// header (first row, row count, column count, nonzero count, half) and then
// the three CSR arrays as slabs. Heartbeat frames are empty liveness markers
// a worker emits while computing; readers skip them transparently,
// refreshing their deadline per beat.
const (
	frameHello          = framing.KindHello     // worker → coordinator: framing.HelloPayload(rank)
	frameConfig    byte = 2                     // coordinator → worker: JSON workerConfig
	frameFactors   byte = 3                     // either direction: factorHeader + float32 payload
	frameError     byte = 4                     // worker → coordinator: UTF-8 failure message
	frameTraceCtx  byte = 5                     // coordinator → worker: rtrace binary span context (17 bytes)
	frameSpans     byte = 6                     // worker → coordinator: rtrace.EncodeSpans payload
	frameHeartbeat      = framing.KindHeartbeat // worker → coordinator: empty liveness marker
	frameData      byte = 8                     // coordinator → worker: dataHeader + RowPtr, ColIdx, Val slabs
)

// maxSmallFrame bounds hello/config/error bodies; factor frames are bounded
// by the row count the reader expects, data frames by their own length.
const maxSmallFrame = 1 << 20

const halfX, halfY byte = 0, 1

// ErrFrameCorrupt reports a frame whose CRC-32C trailer does not match its
// body — bytes were damaged in flight (or injected as damaged by chaosnet) —
// or a data frame whose header declares arrays its length does not hold.
var ErrFrameCorrupt = errors.New("shard: frame checksum mismatch")

// factorHeader describes one factor frame: rows [Lo, Lo+Rows) of the
// iteration's half-side matrix.
type factorHeader struct {
	Iter, Lo, Rows, K uint32
	Half              byte
}

const factorHeaderLen = 17

// dataHeaderLen is a data frame's header: Lo, Rows, Cols as uint32, the
// nonzero count as uint64, the half byte. The slabs behind it are Rows+1
// row pointers rebased to start at 0 (int64), then the column indices
// (int32, global ids) and the values (float32) of the nonzeros.
const dataHeaderLen = 21

// dataFrameLen is the payload length of a data frame of rows rows and nnz
// nonzeros.
func dataFrameLen(rows, nnz uint64) uint64 { return dataHeaderLen + (rows+1)*8 + nnz*8 }

// wire is one framed connection. Reads and writes are buffered and go
// through the lebin codec, which keeps each direction's running body CRC;
// writes are additionally serialized by a mutex, because a worker's
// heartbeat goroutine emits liveness frames concurrently with the training
// loop's factor frames. The counters, when non-nil, accumulate the full
// on-the-wire size of every frame sent or received: data frames into data
// (als_dist_data_bytes_total), every other kind into traffic (the
// als_dist_broadcast_bytes_total measurement point).
type wire struct {
	c             net.Conn
	lr            *lebin.Reader
	wmu           sync.Mutex
	bw            *bufio.Writer
	lw            *lebin.Writer
	traffic, data *atomic.Int64
}

func newWire(c net.Conn, traffic, data *atomic.Int64) *wire {
	bw := bufio.NewWriterSize(c, 1<<16)
	return &wire{
		c:       c,
		lr:      lebin.NewReader(bufio.NewReaderSize(c, 1<<16)),
		bw:      bw,
		lw:      lebin.NewWriter(bw),
		traffic: traffic,
		data:    data,
	}
}

func (w *wire) close() {
	if w != nil && w.c != nil {
		w.c.Close()
	}
}

// count adds n bytes of a frame of the given kind to its counter.
func (w *wire) count(kind byte, n int) {
	c := w.traffic
	if kind == frameData {
		c = w.data
	}
	if c != nil {
		c.Add(int64(n))
	}
}

// beginFrame writes the length prefix and the kind byte, starting the
// frame's CRC at the kind. The caller holds wmu.
func (w *wire) beginFrame(kind byte, payloadLen int) {
	w.lw.U64(uint64(1 + payloadLen))
	w.lw.ResetSum()
	w.lw.U8(kind)
}

// endFrame writes the CRC trailer, counts the frame and flushes.
func (w *wire) endFrame(kind byte, payloadLen int) error {
	w.lw.U32(w.lw.Sum32())
	if err := w.lw.Err(); err != nil {
		return err
	}
	w.count(kind, framing.PrologueLen+payloadLen+framing.CRCTrailer)
	return w.bw.Flush()
}

// writeSmall sends a hello/config/error/heartbeat frame and flushes.
func (w *wire) writeSmall(kind byte, payload []byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	w.beginFrame(kind, len(payload))
	w.lw.Bytes(payload)
	return w.endFrame(kind, len(payload))
}

// writeFactors sends one factor frame and flushes. The floats stream
// through the codec's scratch, so a multi-megabyte factor matrix needs no
// matrix-sized copy.
func (w *wire) writeFactors(h factorHeader, data []float32) error {
	if int(h.Rows)*int(h.K) != len(data) {
		return fmt.Errorf("shard: factor frame %dx%d does not match %d floats", h.Rows, h.K, len(data))
	}
	w.wmu.Lock()
	defer w.wmu.Unlock()
	payloadLen := factorHeaderLen + len(data)*4
	w.beginFrame(frameFactors, payloadLen)
	w.lw.U32(h.Iter)
	w.lw.U32(h.Lo)
	w.lw.U32(h.Rows)
	w.lw.U32(h.K)
	w.lw.U8(h.Half)
	w.lw.F32s(data)
	return w.endFrame(frameFactors, payloadLen)
}

// writeData sends rows [lo, lo+s.NumRows) of one side of the rating matrix
// as one data frame and flushes. s is the rows' own CSR (sparse.CSR.RowRange:
// row pointers from 0, global column ids); its arrays stream through the
// codec's scratch like a factor matrix.
func (w *wire) writeData(half byte, lo int, s *sparse.CSR) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	payloadLen := w.beginData(half, lo, s.NumRows, s.NumCols, s.NNZ())
	w.lw.I64s(s.RowPtr)
	w.lw.I32s(s.ColIdx)
	w.lw.F32s(s.Val)
	return w.endFrame(frameData, payloadLen)
}

// beginData opens a data frame of rows rows and nnz nonzeros, writes its
// header and returns its payload length. The caller holds wmu, writes the
// three slabs and ends the frame.
func (w *wire) beginData(half byte, lo, rows, cols, nnz int) int {
	payloadLen := int(dataFrameLen(uint64(rows), uint64(nnz)))
	w.beginFrame(frameData, payloadLen)
	w.lw.U32(uint32(lo))
	w.lw.U32(uint32(rows))
	w.lw.U32(uint32(cols))
	w.lw.U64(uint64(nnz))
	w.lw.U8(half)
	return payloadLen
}

// colChunk is the column writer's buffer in entries (1 MiB): small enough
// that its scatter stays in cache, large enough that a rank's slice takes a
// few sweeps over the rows, not hundreds.
const colChunk = 1 << 18

// colWriter sends ranges of R's columns as the rows of Rᵀ they are,
// without a transposed copy of R. Its buffers outlive a call, so a cohort's
// setup allocates them once.
type colWriter struct {
	chunk int      // entries a buffer holds; a longer column gets one its length
	buf   []int32  // one chunk of row ids, or of value bits
	cur   []uint32 // per row of R: the offset of its next entry to send
	ptr   []int64  // the slice's column pointers, one place of slack
}

// writeColumns sends columns [lo, hi) of r as rows [lo, hi) of Rᵀ in one
// data frame of the given half and flushes: byte for byte the frame
// writeData sends for those rows of the transpose. One pass over r counts
// the column pointers; then the row ids, then the values, go out a chunk at
// a time (colSlab).
func (w *wire) writeColumns(half byte, r *sparse.CSR, lo, hi int, cw *colWriter) error {
	ns := hi - lo
	if cap(cw.ptr) < ns+2 {
		cw.ptr = make([]int64, ns+2)
	}
	ptr := cw.ptr[:ns+2]
	clear(ptr)
	for _, c := range r.ColIdx {
		if j := int(c) - lo; j >= 0 && j < ns {
			ptr[j+2]++
		}
	}
	for j := 2; j < len(ptr); j++ {
		ptr[j] += ptr[j-1]
	}
	if len(cw.cur) < r.NumRows {
		cw.cur = make([]uint32, r.NumRows)
	}
	w.wmu.Lock()
	defer w.wmu.Unlock()
	payloadLen := w.beginData(half, lo, ns, r.NumRows, int(ptr[ns+1]))
	w.lw.I64s(ptr[1:])
	// ptr[1:] holds each column's start. The row-id slab moves ptr[j+1] to
	// column j's end, which is column j+1's start, so the value slab finds
	// the starts one place down, in ptr[:ns+1].
	w.colSlab(cw, r, lo, ptr[1:], false)
	w.colSlab(cw, r, lo, ptr[:ns+1], true)
	return w.endFrame(frameData, payloadLen)
}

// colSlab writes one slab of a column frame: the entries of columns
// [lo, lo+len(next)-1) of r by column, and within a column by row, as row
// ids or, with vals, as the bits of their values (a float32 goes out as
// the four bytes of its bits either way). next[j] is column j's start in
// the slab and moves to its end. A chunk is the longest run of whole
// columns the buffer holds; it is filled by sweeping each row's cursor
// across those columns, a counting transpose of the chunk alone.
func (w *wire) colSlab(cw *colWriter, r *sparse.CSR, lo int, next []int64, vals bool) {
	ns := len(next) - 1
	for u := range r.NumRows {
		cols, _ := r.Row(u)
		i, _ := slices.BinarySearch(cols, int32(lo))
		cw.cur[u] = uint32(i)
	}
	for c0 := 0; c0 < ns; {
		base := next[c0]
		c1 := c0 + 1
		for c1 < ns && next[c1+1]-base <= int64(cw.chunk) {
			c1++
		}
		size := int(next[c1] - base)
		if len(cw.buf) < size {
			cw.buf = make([]int32, max(size, cw.chunk))
		}
		buf, end := cw.buf[:size], int32(lo+c1)
		for u := range r.NumRows {
			p, q := r.RowPtr[u]+int64(cw.cur[u]), r.RowPtr[u+1]
			for ; p < q && r.ColIdx[p] < end; p++ {
				j := int(r.ColIdx[p]) - lo
				if vals {
					buf[next[j]-base] = int32(math.Float32bits(r.Val[p]))
				} else {
					buf[next[j]-base] = int32(u)
				}
				next[j]++
			}
			cw.cur[u] = uint32(p - r.RowPtr[u])
		}
		w.lw.I32s(buf)
		c0 = c1
	}
}

// readHeader reads the next frame's length prefix and kind byte, starting
// the running body CRC at the kind.
func (w *wire) readHeader() (kind byte, bodyLen uint64, err error) {
	n := w.lr.U64()
	w.lr.ResetSum()
	kind = w.lr.U8()
	if err := w.lr.Err(); err != nil {
		return 0, 0, err
	}
	if n < 1 {
		return 0, 0, fmt.Errorf("shard: empty frame")
	}
	w.lr.Limit(n - 1)
	w.count(kind, framing.PrologueLen)
	return kind, n - 1, nil
}

// readBody reads the n-byte body of a control frame, at most
// maxSmallFrame, and checks its trailer.
func (w *wire) readBody(kind byte, n uint64) ([]byte, error) {
	if n > maxSmallFrame {
		return nil, fmt.Errorf("shard: %d-byte kind %d frame exceeds limit", n, kind)
	}
	body := make([]byte, n)
	if !w.lr.Bytes(body) {
		return nil, w.lr.Err()
	}
	w.count(kind, int(n))
	return body, w.readTrailer(kind)
}

// readTrailer consumes the frame's CRC trailer and checks it against the
// accumulated body CRC.
func (w *wire) readTrailer(kind byte) error {
	sum := w.lr.Sum32()
	got := w.lr.U32()
	if err := w.lr.Err(); err != nil {
		return err
	}
	w.count(kind, framing.CRCTrailer)
	if got != sum {
		return fmt.Errorf("%w (kind=%d, trailer=%08x, computed=%08x)", ErrFrameCorrupt, kind, got, sum)
	}
	return nil
}

// nextFrame reads headers until a frame that is not a heartbeat. Heartbeats
// are consumed; onBeat, when non-nil, runs after each so callers can refresh
// their read deadline per sign of life.
func (w *wire) nextFrame(onBeat func()) (kind byte, n uint64, err error) {
	for {
		kind, n, err = w.readHeader()
		if err != nil || kind != frameHeartbeat {
			return kind, n, err
		}
		if _, err := w.readBody(kind, n); err != nil {
			return 0, 0, err
		}
		if onBeat != nil {
			onBeat()
		}
	}
}

// readSmall reads one control frame past any heartbeats (see nextFrame),
// returning its kind and body.
func (w *wire) readSmall(onBeat func()) (byte, []byte, error) {
	kind, n, err := w.nextFrame(onBeat)
	if err != nil {
		return 0, nil, err
	}
	if kind == frameFactors || kind == frameData {
		return 0, nil, fmt.Errorf("shard: unexpected bulk frame (kind %d)", kind)
	}
	body, err := w.readBody(kind, n)
	if err != nil {
		return 0, nil, err
	}
	return kind, body, nil
}

// expectFactors reads frames until a factor frame arrives, which must match
// the given iteration and half and cover rows [wantLo, wantLo+wantRows), and
// decodes its payload into dst (indexed in the frame's own row space, so
// receiving a shard lands at dst[wantLo*k:]). Heartbeats are skipped (see
// nextFrame) and a frameError surfaces as the worker's own message.
func (w *wire) expectFactors(iter int, half byte, k int, dst []float32, wantLo, wantRows int, onBeat func()) error {
	kind, n, err := w.nextFrame(onBeat)
	if err != nil {
		return err
	}
	switch kind {
	case frameError:
		msg, err := w.readBody(kind, n)
		if err != nil {
			return fmt.Errorf("shard: peer failed (message lost: %w)", err)
		}
		return &workerFailure{msg: string(msg)}
	case frameFactors:
	default:
		return fmt.Errorf("shard: unexpected frame kind %d (want factors)", kind)
	}
	h := factorHeader{
		Iter: w.lr.U32(),
		Lo:   w.lr.U32(),
		Rows: w.lr.U32(),
		K:    w.lr.U32(),
		Half: w.lr.U8(),
	}
	if err := w.lr.Err(); err != nil {
		return err
	}
	if h.Iter != uint32(iter) || h.Half != half || h.K != uint32(k) ||
		h.Lo != uint32(wantLo) || h.Rows != uint32(wantRows) {
		return fmt.Errorf("shard: factor frame (iter=%d half=%d rows [%d,%d) k=%d) does not match expected (iter=%d half=%d rows [%d,%d) k=%d)",
			h.Iter, h.Half, h.Lo, int(h.Lo)+int(h.Rows), h.K, iter, half, wantLo, wantLo+wantRows, k)
	}
	if n != uint64(factorHeaderLen)+uint64(wantRows)*uint64(k)*4 {
		return fmt.Errorf("shard: factor frame length %d does not match %dx%d payload", n, wantRows, k)
	}
	w.lr.F32s(dst[wantLo*k : (wantLo+wantRows)*k])
	if err := w.lr.Err(); err != nil {
		return err
	}
	w.count(kind, int(n))
	return w.readTrailer(kind)
}

// expectData reads the next frame, which must be the data frame of the
// given half, and returns its rows as a CSR with the first row's index. The
// header is held to the frame's own length before anything is allocated:
// the arrays a frame declares are exactly the bytes it brings, so a short
// frame cannot ask for a large matrix. The CSR is validated after its
// checksum.
func (w *wire) expectData(half byte) (s *sparse.CSR, lo int, err error) {
	kind, n, err := w.nextFrame(nil)
	if err != nil {
		return nil, 0, err
	}
	if kind != frameData {
		return nil, 0, fmt.Errorf("shard: unexpected frame kind %d (want data)", kind)
	}
	if n < dataHeaderLen {
		return nil, 0, fmt.Errorf("%w: %d-byte data frame is shorter than its header", ErrFrameCorrupt, n)
	}
	lo32, rows, cols, nnz, gotHalf := w.lr.U32(), w.lr.U32(), w.lr.U32(), w.lr.U64(), w.lr.U8()
	if err := w.lr.Err(); err != nil {
		return nil, 0, err
	}
	if gotHalf != half {
		return nil, 0, fmt.Errorf("shard: data frame for half %d, want half %d", gotHalf, half)
	}
	// Each count is held to the frame first: a dataFrameLen that wraps then
	// falls short of n, so the length check is exact.
	if !w.lr.Fits(uint64(rows)+1, 1, 8) || !w.lr.Fits(nnz, 1, 8) || n != dataFrameLen(uint64(rows), nnz) {
		return nil, 0, fmt.Errorf("%w: %d-byte data frame declares %d rows and %d nonzeros", ErrFrameCorrupt, n, rows, nnz)
	}
	s = &sparse.CSR{
		NumRows: int(rows),
		NumCols: int(cols),
		RowPtr:  make([]int64, rows+1),
		ColIdx:  make([]int32, nnz),
		Val:     make([]float32, nnz),
	}
	w.lr.I64s(s.RowPtr)
	w.lr.I32s(s.ColIdx)
	w.lr.F32s(s.Val)
	if err := w.lr.Err(); err != nil {
		return nil, 0, err
	}
	w.count(kind, int(n))
	if err := w.readTrailer(kind); err != nil {
		return nil, 0, err
	}
	if err := s.Validate(); err != nil {
		return nil, 0, fmt.Errorf("shard: data frame: %w", err)
	}
	return s, int(lo32), nil
}

// workerFailure is a frameError relayed from a worker: the peer is alive
// enough to report its own failure, which the supervisor classifies
// separately from connection loss.
type workerFailure struct{ msg string }

func (e *workerFailure) Error() string { return "shard: peer failed: " + e.msg }
