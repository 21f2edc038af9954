package sparse

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// FuzzReadTriples: the rating-file parser must never panic and must either
// return an error or a structurally valid matrix for arbitrary input, and
// the fast path must agree with the per-line parser and the line scanner on
// every one: the same entries or the same error text. The matrix NewMatrix
// builds from the parse is the keep-last reference's built from parseLine's
// entries, in whatever order and with whatever repeats the lines hold.
func FuzzReadTriples(f *testing.F) {
	f.Add("0 1 4.5\n1 0 2.0\n", false)
	f.Add("1::2::3.0\n", true)
	f.Add("% comment\n\n3,4,5\n", false)
	f.Add("a b c\n", false)
	f.Add("9999999 1 2\n", false)
	f.Add("12\t345\t4.5\n7,8,.5\n1 2 16777216\n0 1 5.\r\n3 4 5", true)
	f.Add("3 1 1\n0 2 2\n3 1 5\n0 0 1\n0 2 3", false)
	f.Add("1 1 1\n1 2 2\n2 1 3\n1 2 4\n", true)
	f.Fuzz(func(t *testing.T, input string, oneBased bool) {
		sameParse(t, "fuzz input", func() io.Reader { return strings.NewReader(input) }, oneBased)
		coo, err := ReadTriples(strings.NewReader(input), oneBased)
		if err != nil {
			return
		}
		if err := coo.Validate(); err != nil {
			t.Fatalf("parser returned invalid COO: %v", err)
		}
		if coo.Rows > 1<<20 || coo.Cols > 1<<20 {
			return // the matrix below is sized by the largest id: the parser is the target
		}
		es, err := scanEntries(strings.NewReader(input), oneBased)
		if err != nil {
			t.Fatalf("per-line parse failed where ReadTriples did not: %v", err)
		}
		want := keepLast(coo.Rows, coo.Cols, es)
		mx, err := NewMatrix(coo)
		if err != nil {
			t.Fatalf("NewMatrix of a parsed COO: %v", err)
		}
		if !sameCSR(mx.R, want) {
			t.Fatalf("NewMatrix built %+v, the keep-last reference %+v", mx.R, want)
		}
		if err := mx.R.Validate(); err != nil {
			t.Fatalf("parsed matrix invalid: %v", err)
		}
		if err := transposed(mx.C).Validate(); err != nil {
			t.Fatalf("parsed matrix's column view invalid: %v", err)
		}
		// Round-trip through the writer must re-parse cleanly.
		var buf bytes.Buffer
		if err := WriteTriples(&buf, mx.R); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadTriples(&buf, false); err != nil {
			t.Fatalf("writer output failed to re-parse: %v", err)
		}
	})
}
