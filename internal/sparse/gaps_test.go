package sparse

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// rowsSpec writes rows of ascending ids as FuzzGapsMatchCSR reads them:
// per row, uvarint steps of at least 1 from the previous id (from −1),
// then a 0.
func rowsSpec(rows ...[]int) []byte {
	var b []byte
	for _, row := range rows {
		prev := -1
		for _, c := range row {
			b = binary.AppendUvarint(b, uint64(c-prev))
			prev = c
		}
		b = binary.AppendUvarint(b, 0)
	}
	return b
}

// specCSR builds the pattern rowsSpec wrote, over cols+1 columns (at most
// 2³¹): an id past the last column ends its row, and a truncated varint
// ends the input.
func specCSR(cols uint32, spec []byte) *CSR {
	m := &CSR{NumCols: int(cols%(1<<31)) + 1, RowPtr: []int64{0}}
	for len(spec) > 0 {
		prev := -1
		for len(spec) > 0 {
			step, n := binary.Uvarint(spec)
			if n <= 0 {
				spec = nil
				break
			}
			spec = spec[n:]
			if step == 0 || step >= uint64(m.NumCols-prev) {
				break
			}
			prev += int(step)
			m.ColIdx = append(m.ColIdx, int32(prev))
		}
		m.NumRows++
		m.RowPtr = append(m.RowPtr, int64(len(m.ColIdx)))
	}
	return m
}

// ascending returns the ids 0, step, 2·step, … n of them.
func ascending(n, step int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i * step
	}
	return ids
}

// FuzzGapsMatchCSR: for arbitrary ascending rows, the coded set answers
// every membership question as the plain row's binary search (InSorted,
// what serve's sortedExcluder runs) does, for every id in [−1, NumCols]
// when there are few columns and around every stored id and both ends
// otherwise; and cutting the coded set is coding the plain set's cut.
func FuzzGapsMatchCSR(f *testing.F) {
	f.Add(uint32(4), rowsSpec([]int{}, []int{0}, []int{4}, nil, []int{0, 2, 4}))
	f.Add(uint32(math.MaxInt32-1), rowsSpec([]int{0, math.MaxInt32 - 1}, []int{1}))
	f.Add(uint32(299), rowsSpec(ascending(31, 3), ascending(32, 3), ascending(33, 3), ascending(64, 3)))
	f.Add(uint32(9999), rowsSpec(ascending(33, 300), ascending(64, 150), ascending(65, 1)))
	f.Fuzz(func(t *testing.T, cols uint32, spec []byte) {
		m := specCSR(cols, spec)
		if err := (&CSR{NumRows: m.NumRows, NumCols: m.NumCols, RowPtr: m.RowPtr, ColIdx: m.ColIdx,
			Val: make([]float32, len(m.ColIdx))}).Validate(); err != nil {
			t.Fatalf("spec built an invalid pattern: %v", err)
		}
		g := NewGaps(m)
		for u := 0; u < m.NumRows; u++ {
			row := m.RowCols(u)
			if g.RowEmpty(u) != (len(row) == 0) {
				t.Fatalf("row %d: RowEmpty %v with %d ids", u, g.RowEmpty(u), len(row))
			}
			probe := func(i int) {
				if got, want := g.Has(u, i), InSorted(row, i); got != want {
					t.Fatalf("row %d %v: Has(%d) = %v, the plain row says %v", u, row, i, got, want)
				}
			}
			if m.NumCols <= 4096 {
				for i := -1; i <= m.NumCols; i++ {
					probe(i)
				}
			} else {
				for _, i := range []int{-1, 0, m.NumCols - 1, m.NumCols} {
					probe(i)
				}
				for _, c := range row {
					probe(int(c) - 1)
					probe(int(c))
					probe(int(c) + 1)
				}
			}
		}
		n := m.NumCols
		for _, r := range [][2]int{{0, n}, {0, n + 5}, {n / 3, 2*n/3 + 1}, {n / 2, n / 2}, {n - 1, n}} {
			if got, want := g.ColRange(r[0], r[1]), NewGaps(m.ColRange(r[0], r[1])); !reflect.DeepEqual(got, want) {
				t.Fatalf("ColRange(%d, %d) of the coded set %+v, coding the plain cut %+v", r[0], r[1], got, want)
			}
		}
	})
}

// TestGapsLayout pins the layout on a row that straddles restart points:
// one restart per gapStride ids, the gaps between, and exactly sized
// arrays.
func TestGapsLayout(t *testing.T) {
	m := specCSR(1000, rowsSpec(nil, ascending(gapStride+2, 7), []int{0, 200}))
	g := NewGaps(m)
	// Row 1: gapStride−1 one-byte gaps of 7, then one; row 2: a two-byte
	// gap of 200.
	want := []restart{{0, 0}, {7 * gapStride, gapStride - 1}, {0, gapStride}, {0, gapStride + 2}}
	if !reflect.DeepEqual(g.blk, []uint32{0, 0, 2, 3}) || !reflect.DeepEqual(g.rs, want) || len(g.data) != gapStride+2 {
		t.Fatalf("blocks %v restarts %v over %d bytes, want [0 0 2 3] %v over %d", g.blk, g.rs, len(g.data), want, gapStride+2)
	}
	if g.Bytes() != 4*4+8*4+gapStride+2 || cap(g.data) != len(g.data) || cap(g.rs) != len(g.rs) {
		t.Fatalf("Bytes %d, caps %d/%d", g.Bytes(), cap(g.data), cap(g.rs))
	}
	if NewGaps(nil) != nil {
		t.Fatal("NewGaps(nil) is not nil")
	}
}

// TestGapsHasAllocatesNothing: a lookup decodes in place.
func TestGapsHasAllocatesNothing(t *testing.T) {
	g := NewGaps(specCSR(10000, rowsSpec(ascending(500, 17))))
	if n := testing.AllocsPerRun(100, func() { g.Has(0, 17*250+3) }); n != 0 {
		t.Fatalf("Has allocates %v times", n)
	}
}
