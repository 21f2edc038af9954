package sparse

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
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
// formats index with.
//
// The file is read in blocks cut at their last newline. A line of the
// plainest shape — digits, one separator, digits, one separator, a short
// decimal — is parsed where it lies (fastLine); every other line, and so
// every malformed one, goes through parseLine, the per-line splitter and
// strconv, which defines what a line means. Nothing is allocated per line.
func ReadTriples(r io.Reader, oneBased bool) (*COO, error) {
	return readTriples(r, oneBased, true)
}

// readTriples is ReadTriples; fast = false sends every line through
// parseLine, which is how the tests hold the fast path to it.
func readTriples(r io.Reader, oneBased, fast bool) (*COO, error) {
	coo := NewCOO(0, 0)
	total := lebin.Remaining(r)
	buf := make([]byte, blockBytes)
	var read int64 // bytes read so far
	carry := 0     // buf[:carry] is the head of a line the last block cut
	lineNo := 0
	for {
		if carry == len(buf) {
			// One line fills the buffer: bufio.Scanner's rule, a line
			// and its newline fit in maxLineBytes or the file is refused.
			if len(buf) >= maxLineBytes {
				return nil, fmt.Errorf("sparse: line %d: %w", lineNo+1, bufio.ErrTooLong)
			}
			buf = append(buf, make([]byte, min(len(buf), maxLineBytes-len(buf)))...)
		}
		n, readErr := io.ReadFull(r, buf[carry:])
		read += int64(n)
		data := buf[:carry+n]
		lines := data[:bytes.LastIndexByte(data, '\n')+1]
		if readErr != nil && len(lines) < len(data) {
			// The input ends in a line without a newline: give it one.
			data = append(data, '\n')
			lines = data
		}
		// Room for the block's entries in one step. When the input's
		// length is known the step is to the whole file's count, scaled
		// from what the bytes so far held, so a large file grows once.
		if need := coo.NNZ() + bytes.Count(lines, newline); need > cap(coo.Val) {
			if total > read {
				need = int(float64(need)*float64(total)/float64(read)) + 1
			}
			coo.Grow(need - coo.NNZ())
		}
		for p := 0; p < len(lines); {
			lineNo++
			if fast {
				if e, n := fastLine(lines[p:], oneBased); n > 0 {
					coo.Append(e.Row, e.Col, e.Val)
					p += n
					continue
				}
			}
			end := p + bytes.IndexByte(lines[p:], '\n')
			e, ok, err := parseLine(lines[p:end], lineNo, oneBased)
			if err != nil {
				return nil, err
			}
			if ok {
				coo.Append(e.Row, e.Col, e.Val)
			}
			p = end + 1
		}
		if readErr == io.EOF || readErr == io.ErrUnexpectedEOF {
			return coo, nil
		}
		if readErr != nil {
			return nil, fmt.Errorf("sparse: line %d: %w", lineNo+1, readErr)
		}
		carry = copy(buf, data[len(lines):])
	}
}

const (
	maxLineBytes = 1024 * 1024 // the longest rating line ReadTriples accepts, its newline included
	blockBytes   = 256 * 1024  // ReadTriples' read size; its buffer grows past it only for a longer line
)

var newline = []byte{'\n'}

// fastLine parses a line of the form
//
//	digits sep digits sep decimal '\n'
//
// at the head of b, which must end in '\n': each id 1 to 9 digits (so it
// fits an int32 unchecked), sep one space, tab or comma, decimal at most 15
// digits around an optional point with a value below 2^24 before the point
// is placed and at most 10 digits after it. For those, float32(mantissa) /
// 10^frac is correctly rounded — it is the exact path strconv.ParseFloat
// itself takes — so the entry is the one parseLine returns. n is the
// line's length with its newline, or 0 for any other line: signs,
// exponents, "::", padding, CRLF, extra fields, a 1-based id of 0, long
// numbers and every malformed line are parseLine's.
func fastLine(b []byte, oneBased bool) (e Entry, n int) {
	p := 0
	var ids [2]int
	for f := range ids {
		start, id := p, 0
		for c := b[p] - '0'; c <= 9; c = b[p] - '0' {
			id = id*10 + int(c)
			p++
		}
		if d := p - start; d == 0 || d > 9 {
			return e, 0
		}
		if c := b[p]; c != '\t' && c != ' ' && c != ',' {
			return e, 0
		}
		p++
		ids[f] = id
	}
	start, mant := p, uint64(0)
	for c := b[p] - '0'; c <= 9; c = b[p] - '0' {
		mant = mant*10 + uint64(c)
		p++
	}
	digits, frac := p-start, 0
	if b[p] == '.' {
		p++
		start = p
		for c := b[p] - '0'; c <= 9; c = b[p] - '0' {
			mant = mant*10 + uint64(c)
			p++
		}
		frac = p - start
		digits += frac
	}
	if b[p] != '\n' || digits == 0 || digits > 15 || frac > 10 || mant >= 1<<24 {
		return e, 0
	}
	if oneBased {
		ids[0]--
		ids[1]--
		if ids[0] < 0 || ids[1] < 0 {
			return e, 0
		}
	}
	return Entry{Row: ids[0], Col: ids[1], Val: float32(mant) / pow10[frac]}, p + 1
}

// pow10 holds the powers of ten a float32 represents exactly.
var pow10 = [...]float32{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// parseLine parses one line without its newline: blank lines and comments
// are skipped (ok false), anything else is a rating or the error that
// names the line. It splits in place: nothing is allocated (a field of
// more than 32 bytes aside).
func parseLine(line []byte, lineNo int, oneBased bool) (e Entry, ok bool, err error) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 || line[0] == '%' || line[0] == '#' {
		return e, false, nil
	}
	fields, n := splitRating(line)
	if n < 3 {
		return e, false, fmt.Errorf("sparse: line %d: want at least 3 fields, got %d", lineNo, n)
	}
	// A string(field) that does not outlive the call is built on the
	// stack; strconv copies it only into an error.
	u, err := strconv.Atoi(string(fields[0]))
	if err != nil {
		return e, false, fmt.Errorf("sparse: line %d: bad user id %q: %v", lineNo, fields[0], err)
	}
	i, err := strconv.Atoi(string(fields[1]))
	if err != nil {
		return e, false, fmt.Errorf("sparse: line %d: bad item id %q: %v", lineNo, fields[1], err)
	}
	v, err := strconv.ParseFloat(string(fields[2]), 32)
	if err != nil {
		return e, false, fmt.Errorf("sparse: line %d: bad rating %q: %v", lineNo, fields[2], err)
	}
	if oneBased {
		u--
		i--
	}
	if u < 0 || i < 0 {
		return e, false, fmt.Errorf("sparse: line %d: negative id after adjustment (%d,%d)", lineNo, u, i)
	}
	if u > math.MaxInt32 || i > math.MaxInt32 {
		return e, false, fmt.Errorf("sparse: line %d: id (%d,%d) does not fit the 32-bit index", lineNo, u, i)
	}
	return Entry{Row: u, Col: i, Val: float32(v)}, true, nil
}

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
