package sparse

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// scanEntries is ReadTriples as it was before it read blocks: bufio.Scanner
// cuts the lines, parseLine parses each. It defines the line numbers, the
// longest line and what happens to the lines before a read error.
func scanEntries(r io.Reader, oneBased bool) ([]Entry, error) {
	var es []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		e, ok, err := parseLine(sc.Bytes(), lineNo, oneBased)
		if err != nil {
			return nil, err
		}
		if ok {
			es = append(es, e)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sparse: line %d: %w", lineNo+1, err)
	}
	return es, nil
}

// scanTriples is scanEntries into a COO.
func scanTriples(r io.Reader, oneBased bool) (*COO, error) {
	es, err := scanEntries(r, oneBased)
	if err != nil {
		return nil, err
	}
	return cooOf(0, 0, es...), nil
}

// sameParse holds the three readers to one another on one input: the fast
// path, the block reader with every line sent through parseLine, and the
// line scanner return deeply equal COOs or the same error text.
func sameParse(t *testing.T, name string, open func() io.Reader, oneBased bool) {
	t.Helper()
	fast, fastErr := readTriples(open(), oneBased, true)
	for _, ref := range []struct {
		name string
		read func() (*COO, error)
	}{
		{"per-line", func() (*COO, error) { return readTriples(open(), oneBased, false) }},
		{"scanner", func() (*COO, error) { return scanTriples(open(), oneBased) }},
	} {
		want, wantErr := ref.read()
		if (fastErr == nil) != (wantErr == nil) || (fastErr != nil && fastErr.Error() != wantErr.Error()) {
			t.Errorf("%s: fast path error %v, %s error %v", name, fastErr, ref.name, wantErr)
			continue
		}
		if fastErr != nil {
			continue
		}
		// Only the columns' capacity may differ.
		if fast.Rows != want.Rows || fast.Cols != want.Cols || fast.NNZ() != want.NNZ() {
			t.Errorf("%s: fast path %dx%d with %d entries, %s %dx%d with %d", name,
				fast.Rows, fast.Cols, fast.NNZ(), ref.name, want.Rows, want.Cols, want.NNZ())
			continue
		}
		wantEntries := entriesOf(want)
		for i, e := range entriesOf(fast) {
			w := wantEntries[i]
			if e.Row != w.Row || e.Col != w.Col || math.Float32bits(e.Val) != math.Float32bits(w.Val) {
				t.Errorf("%s: entry %d = %+v, %s has %+v", name, i, e, ref.name, w)
				break
			}
		}
	}
}

// filler is n bytes of complete rating lines (n >= 8).
func filler(n int) string {
	var sb strings.Builder
	for sb.Len()+16 <= n {
		sb.WriteString("3\t4\t2.5\n")
	}
	// One last line, padded with fraction digits to the exact length.
	sb.WriteString("3\t4\t2." + strings.Repeat("5", n-sb.Len()-7) + "\n")
	return sb.String()
}

// TestFastPathMatchesPerLine: every input the other parser tests use, and a
// table of inputs built around a block boundary, parse alike on all paths.
func TestFastPathMatchesPerLine(t *testing.T) {
	type input struct {
		name, text string
		oneBased   bool
	}
	var inputs []input
	for _, tc := range formatCases {
		inputs = append(inputs, input{tc.name, tc.input, tc.oneBased})
	}
	for _, tc := range errorCases {
		inputs = append(inputs, input{tc.name, tc.input, tc.oneBased})
	}
	inputs = append(inputs, input{"grammar", grammarInput, false}, input{"grammar, one-based", grammarInput, true})

	// Lines at a cut: the block reader hands the parser blockBytes at a time,
	// so a prefix of blockBytes-d bytes puts what follows across the cut.
	for _, d := range []int{0, 1, 2, 5, 9, 10, 11} {
		pre := filler(blockBytes - d)
		for name, tail := range map[string]string{
			"plain line":        "12\t345\t4.5\n6\t7\t1\n",
			"no final newline":  "12\t345\t4.5\n6\t7\t1",
			"CRLF":              "12\t345\t4.5\r\n6\t7\t1\r\n",
			"blank and comment": "\n# note\n\n% note\n \t \n12\t345\t4.5\n",
			"double colon":      "12::345::4.5::978300760\n1::2::3\n",
			"bad line":          "12\t345\tx\n",
			"too few fields":    "12\t345\n",
		} {
			inputs = append(inputs, input{fmt.Sprintf("cut-%d %s", d, name), pre + tail, false})
		}
	}
	// A whole number of blocks, and a block that is one long line.
	inputs = append(inputs,
		input{"two full blocks", filler(blockBytes) + filler(blockBytes), false},
		input{"line longer than a block", "1 2 3\n4 5 " + strings.Repeat("7", blockBytes+100) + "\n8 9 1\n", false},
	)

	// The longest line: its newline included it fills maxLineBytes, one more
	// byte is an error that names the line, with or without a final newline.
	longest := "0 1 0." + strings.Repeat("1", maxLineBytes-7)
	for _, end := range []string{"\n", ""} {
		inputs = append(inputs,
			input{"longest line" + strconv.Quote(end), "0 0 1\n" + longest + end, false},
			input{"line one past the longest" + strconv.Quote(end), "0 0 1\n" + longest + "1" + end, false},
		)
	}

	// Ids at the edges, and the rating forms the fast path takes or declines.
	for _, line := range []string{
		"2147483647 0 1", "0 2147483647 1", "2147483648 0 1", "0 2147483648 1",
		"999999999 999999999 1", "1000000000 1 1", "0000000007 3 1", "007 3 1",
		"0 5 1", "5 0 1", "1 1 1",
		"1 1 5", "1 1 .5", "1 1 5.", "1 1 .", "1 1 1e0", "1 1 +3", "1 1 -0", "1 1 NaN", "1 1 Inf", "1 1 0x1p3", "1 1 1_0",
		"1 1 16777215", "1 1 16777216", "1 1 16777217", "1 1 99999999", "1 1 0.1234567", "1 1 1.6777215", "1 1 1.6777217",
		"1 1 0.0000000001", "1 1 0.00000000001", "1 1 000000000000004.5", "1 1 0000000000000004.5", "1 1 4.50000000000",
		"1\t1\t4.5", "1,1,4.5", "1  1 4.5", "1 1  4.5", " 1 1 4.5", "1 1 4.5 ", "1 1 4.5 978300760", "1 1 4.5,", "1;1;4.5",
		"1 1", "1", "", " ", "1 1 4.5\r", "1.0 1 4.5", "1 1.0 4.5", "-1 1 4.5", "1 -1 4.5",
	} {
		for _, oneBased := range []bool{false, true} {
			for _, end := range []string{"\n", ""} {
				inputs = append(inputs, input{strconv.Quote(line + end), "3 3 3\n" + line + end, oneBased})
			}
		}
	}

	for _, in := range inputs {
		sameParse(t, in.name, func() io.Reader { return strings.NewReader(in.text) }, in.oneBased)
	}

	// The edges above mean what they say.
	for text, want := range map[string]string{
		"0 0 1\n" + longest + "\n":  "",
		"0 0 1\n" + longest:         "",
		"0 0 1\n" + longest + "1\n": "sparse: line 2: bufio.Scanner: token too long",
		"0 0 1\n" + longest + "1":   "sparse: line 2: bufio.Scanner: token too long",
		"1 2147483647 1\n":          "",
		"1 2147483648 1\n":          "sparse: line 1: id (1,2147483648) does not fit the 32-bit index",
	} {
		_, err := ReadTriples(strings.NewReader(text), false)
		if got := fmt.Sprint(err); (want == "" && err != nil) || (want != "" && got != want) {
			t.Errorf("ReadTriples(%.20q… %d bytes): error %v, want %q", text, len(text), err, want)
		}
	}

	// A read error comes after the lines read before it, and a parse error
	// among those comes first; a reader that hands out a byte at a time or
	// its error with its last bytes changes nothing.
	broken := errors.New("disk on fire")
	text := filler(blockBytes+40) + "5 6 1\n7 8 2"
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"read error": func(r io.Reader) io.Reader {
			return io.MultiReader(r, iotest.ErrReader(broken))
		},
		"read error after a bad line": func(r io.Reader) io.Reader {
			return io.MultiReader(r, strings.NewReader("\nx y z\n"), iotest.ErrReader(broken))
		},
		"one byte at a time":  iotest.OneByteReader,
		"error with the data": iotest.DataErrReader,
	} {
		sameParse(t, name, func() io.Reader { return wrap(strings.NewReader(text)) }, false)
	}
	if _, err := ReadTriples(io.MultiReader(strings.NewReader(text), iotest.ErrReader(broken)), false); !errors.Is(err, broken) {
		t.Errorf("read error lost: %v", err)
	}
}

// TestFastLineFloats: for every rating the fast path accepts, its float32 is
// strconv's, bit for bit — every digit string of up to four digits with the
// point in every place, and random longer ones up to the limits it accepts.
func TestFastLineFloats(t *testing.T) {
	accepted := 0
	check := func(rating string) {
		e, n := fastLine([]byte("1\t2\t"+rating+"\n"), false)
		if n == 0 {
			return
		}
		accepted++
		want, err := strconv.ParseFloat(rating, 32)
		if err != nil {
			t.Fatalf("fast path accepted %q, strconv: %v", rating, err)
		}
		if math.Float32bits(e.Val) != math.Float32bits(float32(want)) {
			t.Fatalf("rating %q: fast path %g (%#x), strconv %g (%#x)", rating,
				e.Val, math.Float32bits(e.Val), float32(want), math.Float32bits(float32(want)))
		}
	}
	for digits := 0; digits <= 4; digits++ {
		for v := 0; v < int(math.Pow10(digits)); v++ {
			s := fmt.Sprintf("%0*d", digits, v)[:digits]
			check(s)
			for dot := 0; dot <= digits; dot++ {
				check(s[:dot] + "." + s[dot:])
			}
		}
	}
	if want := 10 + 100 + 1000 + 10000 + 2*10 + 3*100 + 4*1000 + 5*10000; accepted != want {
		t.Errorf("fast path accepted %d of the short ratings, want %d (all with a digit)", accepted, want)
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 300000; i++ {
		digits := 5 + rng.Intn(13) // past the 15 it accepts
		frac := rng.Intn(min(digits, 12) + 1)
		mant := rng.Int63n(1 << 25) // around the 2^24 it accepts
		s := fmt.Sprintf("%0*d", digits, mant)
		if len(s) > digits {
			s = s[len(s)-digits:]
		}
		check(s[:digits-frac] + "." + s[digits-frac:])
		if frac == 0 {
			check(s)
		}
	}
	if accepted < 100000 {
		t.Errorf("only %d random ratings were accepted: the draw misses the fast path", accepted)
	}
}

// TestFastPathTakesRatingFiles: the lines WriteTriples writes for half-star
// ratings are all the fast path's, so a benchmark file never sees strconv.
func TestFastPathTakesRatingFiles(t *testing.T) {
	var text bytes.Buffer
	if err := WriteTriples(&text, benchTriples(t, 5000)); err != nil {
		t.Fatal(err)
	}
	for b := text.Bytes(); len(b) > 0; {
		_, n := fastLine(b, false)
		if n == 0 {
			t.Fatalf("fast path declined %q", b[:bytes.IndexByte(b, '\n')])
		}
		b = b[n:]
	}
}
