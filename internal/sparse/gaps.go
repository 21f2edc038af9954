package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/lebin"
)

// gapStride is how many ids one restart point heads: a lookup decodes at
// most gapStride−1 gaps after its search. Measured on a 2-vCPU Xeon by
// BenchmarkRatedExcluder in internal/serve, which replays the lookups the
// benchmark's catalog requests make (the candidates a real scan passed to
// its excluder, 98 and 24.5 a request for its two clients; the plain
// pattern takes 5.9 and 0.87 µs for them): 16 / 32 / 64 hold 1.91 / 1.71 /
// 1.60 B an entry and take 6.6 / 7.5 / 9.6 µs and 1.4 / 1.9 / 2.8 µs. 32
// keeps most of the saving for about 1.5 % of a ≈ 108 µs request.
const gapStride = 32

// Gaps is a CSR pattern coded for membership tests alone: each row's
// ascending column ids are stored as uvarint gaps, and every gapStride-th
// id is a restart point, kept as an absolute int32 beside the byte offset
// of its block. Has binary-searches a row's restart heads and decodes at
// most gapStride−1 gaps; nothing is decoded ahead or allocated. It holds
// no values and is immutable once built. A serving rated set is one: on
// the benchmark's catalog file it takes 1.71 B an entry where the
// pattern's RowPtr and ColIdx take 4.06.
type Gaps struct {
	NumRows, NumCols int

	blk  []uint32  // row u's blocks are [blk[u], blk[u+1])
	rs   []restart // one per block, then one whose off ends the last
	data []byte
}

// restart heads one block: its first id, and where its gaps start in
// data; they end where the next block's start.
type restart struct {
	head int32
	off  uint32
}

// NewGaps codes m's pattern: only RowPtr and ColIdx are read. Nil for
// nil.
func NewGaps(m *CSR) *Gaps {
	if m == nil {
		return nil
	}
	return codeRows(m.NumRows, m.NumCols, func(u int, _ []int32) []int32 { return m.RowCols(u) })
}

// codeRows codes numRows rows, row u's ascending ids being row(u, buf)
// (which may append them to buf, a slice it returned before), into arrays
// sized exactly (cap == len): one pass counts the blocks and bytes, a
// second fills them.
func codeRows(numRows, numCols int, row func(u int, buf []int32) []int32) *Gaps {
	var buf []int32
	blocks, size := 0, 0
	for u := 0; u < numRows; u++ {
		buf = row(u, buf[:0])
		for j, c := range buf {
			if j > 0 && c <= buf[j-1] {
				panic(fmt.Sprintf("sparse: row %d ids %d, %d do not ascend", u, buf[j-1], c))
			}
			if j%gapStride == 0 {
				blocks++
			} else {
				size += (bits.Len32(uint32(c-buf[j-1])) + 6) / 7 // its uvarint's bytes
			}
		}
	}
	if blocks >= math.MaxUint32 || size > math.MaxUint32 {
		panic(fmt.Sprintf("sparse: %d restart points and %d bytes of gaps overflow the 32-bit offsets", blocks, size))
	}
	g := &Gaps{NumRows: numRows, NumCols: numCols, blk: make([]uint32, numRows+1),
		rs: make([]restart, 0, blocks+1), data: make([]byte, size)}
	at := 0
	for u := 0; u < numRows; u++ {
		buf = row(u, buf[:0])
		for j, c := range buf {
			if j%gapStride == 0 {
				g.rs = append(g.rs, restart{c, uint32(at)})
			} else {
				at += binary.PutUvarint(g.data[at:], uint64(c-buf[j-1]))
			}
		}
		g.blk[u+1] = uint32(len(g.rs))
	}
	g.rs = append(g.rs, restart{off: uint32(at)})
	return g
}

// Has reports whether row u holds column i; i may lie outside
// [0, NumCols), which no row holds.
func (g *Gaps) Has(u, i int) bool {
	first := int(g.blk[u])
	heads := g.rs[first:g.blk[u+1]]
	if len(heads) == 0 || int(heads[0].head) > i {
		return false
	}
	// The block that would hold i is the last whose head is ≤ i.
	at, n := 0, len(heads)
	for n > 1 {
		half := n >> 1
		if int(heads[at+half].head) <= i {
			at += half
		}
		n -= half
	}
	b := first + at
	c := int(g.rs[b].head)
	gaps := g.data[g.rs[b].off:g.rs[b+1].off]
	for p := 0; c < i && p < len(gaps); {
		var d uint64
		d, p = lebin.UvarintAt(gaps, p)
		c += int(d)
	}
	return c == i
}

// RowEmpty reports whether row u holds no column.
func (g *Gaps) RowEmpty(u int) bool { return g.blk[u] == g.blk[u+1] }

// appendRow appends row u's ids, ascending, to dst.
func (g *Gaps) appendRow(dst []int32, u int) []int32 {
	for b := g.blk[u]; b < g.blk[u+1]; b++ {
		c := g.rs[b].head
		dst = append(dst, c)
		gaps := g.data[g.rs[b].off:g.rs[b+1].off]
		for p := 0; p < len(gaps); {
			var d uint64
			d, p = lebin.UvarintAt(gaps, p)
			c += int32(d)
			dst = append(dst, c)
		}
	}
	return dst
}

// ColRange returns columns [lo, hi) as a new coded set of the same rows,
// renumbered to col − lo with NumCols = hi − lo: what coding the plain
// set's cut gives. A serving shard cuts its rated set so. It decodes each
// row once and keeps none of g alive. hi may exceed NumCols.
func (g *Gaps) ColRange(lo, hi int) *Gaps {
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("sparse: column range [%d,%d) is not 0 <= lo <= hi", lo, hi))
	}
	return codeRows(g.NumRows, hi-lo, func(u int, buf []int32) []int32 {
		kept := buf[:0]
		for _, c := range g.appendRow(buf, u) {
			if int(c) >= lo && int(c) < hi {
				kept = append(kept, c-int32(lo))
			}
		}
		return kept
	})
}

// Bytes is how many bytes the coded set's arrays hold. 0 for nil.
func (g *Gaps) Bytes() int {
	if g == nil {
		return 0
	}
	return 4*len(g.blk) + 8*len(g.rs) + len(g.data)
}

// InSorted reports whether i is in sorted, a binary search over ascending
// ids. It is the membership test of a plain row (CSR.RowCols).
func InSorted(sorted []int32, i int) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(sorted[mid]) < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && int(sorted[lo]) == i
}
