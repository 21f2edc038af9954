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
// every one: the same entries or the same error text.
func FuzzReadTriples(f *testing.F) {
	f.Add("0 1 4.5\n1 0 2.0\n", false)
	f.Add("1::2::3.0\n", true)
	f.Add("% comment\n\n3,4,5\n", false)
	f.Add("a b c\n", false)
	f.Add("9999999 1 2\n", false)
	f.Add("12\t345\t4.5\n7,8,.5\n1 2 16777216\n0 1 5.\r\n3 4 5", true)
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
		coo.Dedup(DedupKeepLast)
		m, err := coo.ToCSR()
		if err != nil {
			t.Fatalf("deduped COO failed CSR conversion: %v", err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("parsed matrix invalid: %v", err)
		}
		// Round-trip through the writer must re-parse cleanly.
		var buf bytes.Buffer
		if err := WriteTriples(&buf, m); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadTriples(&buf, false); err != nil {
			t.Fatalf("writer output failed to re-parse: %v", err)
		}
	})
}

func TestSortColMajor(t *testing.T) {
	coo := NewCOO(3, 3)
	coo.Append(2, 1, 1)
	coo.Append(0, 2, 2)
	coo.Append(1, 0, 3)
	coo.Append(0, 1, 4)
	coo.SortColMajor()
	prev := [2]int{-1, -1}
	for _, e := range coo.Entries {
		cur := [2]int{e.Col, e.Row}
		if cur[0] < prev[0] || (cur[0] == prev[0] && cur[1] <= prev[1]) {
			t.Fatalf("not column-major sorted: %v", coo.Entries)
		}
		prev = cur
	}
}
