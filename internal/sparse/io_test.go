package sparse

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/lebin"
)

var formatCases = []struct {
	name     string
	input    string
	oneBased bool
}{
	{"space separated", "0 1 4.0\n1 0 2.5\n", false},
	{"tab separated", "0\t1\t4.0\n1\t0\t2.5\n", false},
	{"comma separated", "0,1,4.0\n1,0,2.5\n", false},
	{"movielens double colon", "1::2::4.0\n2::1::2.5\n", true},
	{"one based", "1 2 4.0\n2 1 2.5\n", true},
	{"with comments and blanks", "% header\n\n# note\n0 1 4.0\n1 0 2.5\n", false},
	{"extra fields (timestamps)", "0 1 4.0 978300760\n1 0 2.5 978302109\n", false},
}

func TestReadTriplesFormats(t *testing.T) {
	for _, tc := range formatCases {
		t.Run(tc.name, func(t *testing.T) {
			coo, err := ReadTriples(strings.NewReader(tc.input), tc.oneBased)
			if err != nil {
				t.Fatalf("ReadTriples: %v", err)
			}
			m, err := coo.ToCSR()
			if err != nil {
				t.Fatal(err)
			}
			if m.At(0, 1) != 4.0 || m.At(1, 0) != 2.5 {
				t.Fatalf("parsed values wrong: At(0,1)=%g At(1,0)=%g", m.At(0, 1), m.At(1, 0))
			}
		})
	}
}

var errorCases = []struct {
	name     string
	input    string
	oneBased bool
	want     string // the error must carry the line number and the reason
}{
	{"too few fields", "0 1 4\n0 1\n", false, "line 2: want at least 3 fields, got 2"},
	{"too few fields, double colon", "0::1\n", false, "line 1: want at least 3 fields, got 2"},
	{"bad user", "x 1 4.0\n", false, `line 1: bad user id "x"`},
	{"bad item", "# c\n0 y 4.0\n", false, `line 2: bad item id "y"`},
	{"bad rating", "0 1 zzz\n", false, `line 1: bad rating "zzz"`},
	{"empty double-colon field", "0::1::\n", false, `line 1: bad rating ""`},
	{"spaces inside double-colon fields", "0 :: 1 :: 4\n", false, `line 1: bad user id "0 "`},
	{"negative id", "0 -1 4.0\n", false, "line 1: negative id after adjustment (0,-1)"},
	{"negative after one-based adjust", "1 1 4.0\n0 1 4.0\n", true, "line 2: negative id after adjustment (-1,0)"},
	{"user id past int32", "3000000000 0 5\n", false, "line 1: id (3000000000,0) does not fit"},
	{"item id past int32", "0 1 1\n0 3000000000 5\n", false, "line 2: id (0,3000000000) does not fit"},
	{"item id past int32, one-based", "1 2147483649 5\n", true, "line 1: id (0,2147483648) does not fit"},
	{"id past int64", "0 99999999999999999999 5\n", false, `line 1: bad item id "99999999999999999999"`},
	{"overlong line", "0 1 4\n0 1 " + strings.Repeat("4", maxLineBytes) + "\n", false, "line 2: bufio.Scanner: token too long"},
}

func TestReadTriplesErrors(t *testing.T) {
	for _, tc := range errorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadTriples(strings.NewReader(tc.input), tc.oneBased)
			if err == nil {
				t.Fatal("expected parse error")
			}
			if !strings.HasPrefix(err.Error(), "sparse: ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q, want \"sparse: \" and %q", err, tc.want)
			}
		})
	}
}

// TestReadTriplesGrammar pins what the in-place splitter accepts: the
// largest id, CRLF line ends, runs and mixtures of separators, padding,
// signed ids, exponent ratings, comments of both kinds and trailing fields.
const grammarInput = "% header\r\n" +
	"  0 \t,, 1 ,4.5  \r\n" +
	"\r\n" +
	"#0 0 0\n" +
	"+1,0,1e-3,ignored,fields\n" +
	"2::3::2.5::978300760\n" +
	"\t2147483647 2147483647 -0.5\n" +
	"3 4 5" // no final newline

func TestReadTriplesGrammar(t *testing.T) {
	coo, err := ReadTriples(strings.NewReader(grammarInput), false)
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{{0, 1, 4.5}, {1, 0, 1e-3}, {2, 3, 2.5}, {math.MaxInt32, math.MaxInt32, -0.5}, {3, 4, 5}}
	if len(coo.Entries) != len(want) {
		t.Fatalf("parsed %d entries %v, want %d", len(coo.Entries), coo.Entries, len(want))
	}
	for i, e := range coo.Entries {
		if e != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, e, want[i])
		}
	}
	if coo.Rows != math.MaxInt32+1 || coo.Cols != math.MaxInt32+1 {
		t.Errorf("dimensions %dx%d, want 2^31 x 2^31", coo.Rows, coo.Cols)
	}
}

// TestWriteTriplesBytes: the writer's output is the "%d\t%d\t%g\n" it was
// first written as, byte for byte — integer, half-star, tiny, large,
// shortest-round-trip and non-finite ratings, small and large ids.
func TestWriteTriplesBytes(t *testing.T) {
	vals := []float32{1, 5, 0, 3.5, 0.5, 4.25, -2, 0.1, 1.0 / 3, 1e-7, 1.17549435e-38, 1e-45,
		123456.789, 1e6, 1e21, 3.4028235e38, 16777216, 0.000123,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	coo := NewCOO(0, 0)
	for i, v := range vals {
		coo.Append(i%4*1000003, i*104729, v)
	}
	m, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for r := 0; r < m.NumRows; r++ {
		cols, rv := m.Row(r)
		for j, c := range cols {
			fmt.Fprintf(&want, "%d\t%d\t%g\n", r, c, rv[j])
		}
	}
	var got bytes.Buffer
	if err := WriteTriples(&got, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteTriples wrote\n%s\nwant\n%s", got.Bytes(), want.Bytes())
	}
}

// TestTextIOAllocations: neither direction allocates per rating. Reading
// owns one block buffer and, told the input's length, sizes the entry list
// in one step however many blocks follow; writing owns one line and one
// write buffer.
func TestTextIOAllocations(t *testing.T) {
	m := benchTriples(t, 60000) // a few blocks of text
	var text bytes.Buffer
	if err := WriteTriples(&text, m); err != nil {
		t.Fatal(err)
	}
	if text.Len() < 2*blockBytes {
		t.Fatalf("%d bytes of text do not span blocks of %d", text.Len(), blockBytes)
	}
	if n := testing.AllocsPerRun(3, func() {
		if _, err := ReadTriples(bytes.NewReader(text.Bytes()), false); err != nil {
			t.Fatal(err)
		}
	}); n > 5 {
		t.Errorf("ReadTriples of %d ratings: %v allocations", m.NNZ(), n)
	}
	// A reader that cannot say how long it is costs the entry list's
	// doublings, nothing per block.
	if n := testing.AllocsPerRun(3, func() {
		if _, err := ReadTriples(io.MultiReader(bytes.NewReader(text.Bytes())), false); err != nil {
			t.Fatal(err)
		}
	}); n > 20 {
		t.Errorf("ReadTriples of %d ratings from a plain reader: %v allocations", m.NNZ(), n)
	}
	if n := testing.AllocsPerRun(3, func() {
		if err := WriteTriples(io.Discard, m); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("WriteTriples of %d ratings: %v allocations", m.NNZ(), n)
	}
}

// benchTriples is a rating matrix with about nnz half-star ratings.
func benchTriples(tb testing.TB, nnz int) *CSR {
	tb.Helper()
	rng := rand.New(rand.NewSource(5))
	coo := NewCOO(0, 0)
	for i := 0; i < nnz; i++ {
		coo.Append(rng.Intn(nnz/20+1), rng.Intn(nnz/4+1), float32(1+rng.Intn(9))/2)
	}
	coo.Dedup(DedupKeepLast)
	m, err := coo.ToCSR()
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func BenchmarkWriteTriples(b *testing.B) {
	m := benchTriples(b, 200000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteTriples(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadTriples(b *testing.B) {
	var text bytes.Buffer
	if err := WriteTriples(&text, benchTriples(b, 200000)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(text.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadTriples(bytes.NewReader(text.Bytes()), false); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m, err := randomCOO(rng, 15, 25, 100).ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTriples(&buf, m); err != nil {
		t.Fatal(err)
	}
	coo, err := ReadTriples(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	if m2.NNZ() != m.NNZ() {
		t.Fatalf("nnz %d != %d", m2.NNZ(), m.NNZ())
	}
	for r := 0; r < m.NumRows; r++ {
		cols, vals := m.Row(r)
		for j := range cols {
			if got := m2.At(r, int(cols[j])); got != vals[j] {
				t.Fatalf("value mismatch at (%d,%d): %g != %g", r, cols[j], got, vals[j])
			}
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m, err := randomCOO(rng, 50, 60, 500).ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumRows != m.NumRows || m2.NumCols != m.NumCols || m2.NNZ() != m.NNZ() {
		t.Fatalf("dims mismatch after binary round trip")
	}
	for i := range m.Val {
		if m.Val[i] != m2.Val[i] || m.ColIdx[i] != m2.ColIdx[i] {
			t.Fatalf("payload mismatch at %d", i)
		}
	}
}

func TestReadBinaryRejectsBadMagic(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(make([]byte, 64))
	if _, err := ReadBinary(&buf); err == nil {
		t.Fatal("expected bad-magic error")
	}
}

func TestReadBinaryTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m, err := randomCOO(rng, 10, 10, 40).ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestReadBinaryRejectsImplausibleHeader(t *testing.T) {
	var buf bytes.Buffer
	hdr := []uint64{uint64(binaryMagic), 1 << 60, 4, 4}
	for _, h := range hdr {
		if err := binary.Write(&buf, binary.LittleEndian, h); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ReadBinary(&buf); err == nil {
		t.Fatal("accepted 2^60-row header")
	}
}

// TestReadBinaryBoundsAllocation: a 32-byte header declaring 2³¹ rows and
// 2³¹ nonzeros — 32 GiB of arrays — over a file that holds none of them
// fails after allocating no more than the reader's fixed buffer, the
// codec's 64 KiB scratch, and 64 KiB more.
func TestReadBinaryBoundsAllocation(t *testing.T) {
	var hdr []byte
	for _, v := range []uint64{uint64(binaryMagic), 1 << 31, 4, 1 << 31} {
		hdr = binary.LittleEndian.AppendUint64(hdr, v)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if n, bound := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+64<<10); n > bound {
		t.Errorf("ReadBinary of a 32-byte header allocated %d bytes, bound %d", n, bound)
	}
	if !errors.Is(err, lebin.ErrCount) {
		t.Errorf("err = %v, want lebin.ErrCount", err)
	}
}
