package sparse

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"repro/internal/lebin"
)

// ReadTriples parses the paper's dataset format, one rating per line:
//
//	<userID> <itemID> <rating>
//
// Fields may be separated by spaces, tabs or commas (Movielens uses "::"
// which is also accepted). Lines starting with '%' or '#' are comments.
// IDs are 0-based after parsing; set oneBased if the file uses 1-based IDs
// (Movielens and Netflix do). An id must fit the int32 the compressed
// formats index with. Lines are split in place: nothing is allocated per
// line (a field of more than 32 bytes aside).
func ReadTriples(r io.Reader, oneBased bool) (*COO, error) {
	coo := NewCOO(0, 0)
	// Past entryBlock entries the list grows by whole blocks, joined once at
	// the end: growing one slice would copy a large file five times over.
	var full [][]Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '%' || line[0] == '#' {
			continue
		}
		fields, n := splitRating(line)
		if n < 3 {
			return nil, fmt.Errorf("sparse: line %d: want at least 3 fields, got %d", lineNo, n)
		}
		// A string(field) that does not outlive the call is built on the
		// stack; strconv copies it only into an error.
		u, err := strconv.Atoi(string(fields[0]))
		if err != nil {
			return nil, fmt.Errorf("sparse: line %d: bad user id %q: %v", lineNo, fields[0], err)
		}
		i, err := strconv.Atoi(string(fields[1]))
		if err != nil {
			return nil, fmt.Errorf("sparse: line %d: bad item id %q: %v", lineNo, fields[1], err)
		}
		v, err := strconv.ParseFloat(string(fields[2]), 32)
		if err != nil {
			return nil, fmt.Errorf("sparse: line %d: bad rating %q: %v", lineNo, fields[2], err)
		}
		if oneBased {
			u--
			i--
		}
		if u < 0 || i < 0 {
			return nil, fmt.Errorf("sparse: line %d: negative id after adjustment (%d,%d)", lineNo, u, i)
		}
		if u > math.MaxInt32 || i > math.MaxInt32 {
			return nil, fmt.Errorf("sparse: line %d: id (%d,%d) does not fit the 32-bit index", lineNo, u, i)
		}
		if len(coo.Entries) == cap(coo.Entries) && len(coo.Entries) >= entryBlock {
			full = append(full, coo.Entries)
			coo.Entries = make([]Entry, 0, entryBlock)
		}
		coo.Append(u, i, float32(v))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sparse: line %d: %w", lineNo+1, err)
	}
	if len(full) > 0 {
		coo.Entries = slices.Concat(append(full, coo.Entries)...)
	}
	return coo, nil
}

const (
	maxLineBytes = 1024 * 1024 // the longest rating line ReadTriples accepts
	entryBlock   = 1 << 12     // entries per block once a file is that long
)

// splitRating cuts a space, tab, comma or "::" separated rating line into
// fields, in place. It keeps the first three and stops counting there: n is
// the number of fields up to 3. A line holding "::" is cut at every "::"
// and nowhere else (empty fields count); otherwise runs of separators are
// one separator.
func splitRating(line []byte) (fields [3][]byte, n int) {
	if bytes.Contains(line, doubleColon) {
		for ; n < 3; n++ {
			cut := bytes.Index(line, doubleColon)
			if cut < 0 {
				fields[n] = line
				return fields, n + 1
			}
			fields[n], line = line[:cut], line[cut+2:]
		}
		return fields, n
	}
	isSep := func(c byte) bool { return c == ' ' || c == '\t' || c == ',' }
	for i := 0; n < 3; n++ {
		for i < len(line) && isSep(line[i]) {
			i++
		}
		if i == len(line) {
			break
		}
		start := i
		for i < len(line) && !isSep(line[i]) {
			i++
		}
		fields[n] = line[start:i]
	}
	return fields, n
}

var doubleColon = []byte("::")

// WriteTriples writes the matrix in the `<userID, itemID, rating>` text
// format, row-major, 0-based IDs: "%d\t%d\t%g\n" per rating, the rating in
// the shortest form that parses back to the same float32.
func WriteTriples(w io.Writer, m *CSR) error {
	bw := bufio.NewWriterSize(w, 64*1024)
	var line []byte
	for r := 0; r < m.NumRows; r++ {
		cols, vals := m.Row(r)
		for j, c := range cols {
			line = strconv.AppendInt(line[:0], int64(r), 10)
			line = append(line, '\t')
			line = strconv.AppendInt(line, int64(c), 10)
			line = append(line, '\t')
			line = strconv.AppendFloat(line, float64(vals[j]), 'g', -1, 32)
			line = append(line, '\n')
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// binaryMagic identifies the binary CSR container written by WriteBinary.
const binaryMagic = uint32(0x43535231) // "CSR1"

// WriteBinary writes a compact little-endian binary encoding of the CSR
// matrix: magic, dims, nnz, then the three arrays. Binary snapshots make
// repeated benchmark runs on large synthetic datasets cheap to reload.
func WriteBinary(w io.Writer, m *CSR) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	lw := lebin.NewWriter(bw)
	lw.U64(uint64(binaryMagic))
	lw.U64(uint64(m.NumRows))
	lw.U64(uint64(m.NumCols))
	lw.U64(uint64(m.NNZ()))
	lw.I64s(m.RowPtr)
	lw.I32s(m.ColIdx)
	lw.F32s(m.Val)
	if err := lw.Err(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary reads a matrix written by WriteBinary and validates it.
func ReadBinary(r io.Reader) (*CSR, error) {
	lr := lebin.NewReader(bufio.NewReaderSize(r, 1<<20))
	var hdr [4]uint64
	for i := range hdr {
		hdr[i] = lr.U64()
	}
	if err := lr.Err(); err != nil {
		return nil, fmt.Errorf("sparse: reading header: %w", err)
	}
	if uint32(hdr[0]) != binaryMagic {
		return nil, fmt.Errorf("sparse: bad magic %#x", hdr[0])
	}
	// Reject corrupt headers before allocating: the largest dataset this
	// library targets (full YahooMusic R1) has ~1.2e8 nonzeros.
	const maxDim, maxNNZ = uint64(1) << 33, uint64(1) << 31
	if hdr[1] > maxDim || hdr[2] > maxDim || hdr[3] > maxNNZ {
		return nil, fmt.Errorf("sparse: implausible header dims %dx%d nnz %d", hdr[1], hdr[2], hdr[3])
	}
	m := &CSR{
		NumRows: int(hdr[1]),
		NumCols: int(hdr[2]),
		RowPtr:  make([]int64, hdr[1]+1),
		ColIdx:  make([]int32, hdr[3]),
		Val:     make([]float32, hdr[3]),
	}
	lr.I64s(m.RowPtr)
	lr.I32s(m.ColIdx)
	lr.F32s(m.Val)
	if err := lr.Err(); err != nil {
		return nil, fmt.Errorf("sparse: reading arrays: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
