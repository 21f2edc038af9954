package dataset

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

func TestIDMapRoundTrip(t *testing.T) {
	ids := []int32{100, 5, 100, 2649429, 5}
	m := newIDMap(ids)
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3 distinct ids", m.Len())
	}
	if want := []int32{1, 0, 1, 2, 0}; !slices.Equal(ids, want) {
		t.Fatalf("ids rewritten to %v, want %v", ids, want)
	}
	// Dense order is sorted external order.
	wantOrder := []int64{5, 100, 2649429}
	for i, orig := range wantOrder {
		d, ok := m.Dense(orig)
		if !ok || d != i {
			t.Fatalf("Dense(%d) = %d,%v; want %d", orig, d, ok, i)
		}
		if m.Orig(i) != orig {
			t.Fatalf("Orig(%d) = %d, want %d", i, m.Orig(i), orig)
		}
	}
	if _, ok := m.Dense(999); ok {
		t.Fatal("Dense accepted unknown id")
	}
}

func TestIDMapQuick(t *testing.T) {
	f := func(ids []int32) bool {
		if len(ids) == 0 {
			return true
		}
		dense := slices.Clone(ids)
		m := newIDMap(dense)
		for i, id := range ids {
			d, ok := m.Dense(int64(id))
			if !ok || d != int(dense[i]) || m.Orig(d) != int64(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadCompactShrinksSparseIDSpace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sparse_ids.txt")
	// Netflix-style sparse IDs: 3 users spread over a 2.6M id space.
	content := "7 1000 4.0\n2649429 1000 2.0\n500000 33 3.0\n7 33 5.0\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	cd, err := LoadCompact(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if cd.Matrix.Rows() != 3 || cd.Matrix.Cols() != 2 {
		t.Fatalf("compact dims %dx%d, want 3x2", cd.Matrix.Rows(), cd.Matrix.Cols())
	}
	if cd.Matrix.NNZ() != 4 {
		t.Fatalf("nnz = %d", cd.Matrix.NNZ())
	}
	// Values preserved under the remap.
	u, _ := cd.Users.Dense(7)
	i, _ := cd.Items.Dense(33)
	if got := cd.Matrix.R.At(u, i); got != 5.0 {
		t.Fatalf("remapped value = %g, want 5", got)
	}
	// The plain loader would have allocated 2 649 430 rows.
	plain, err := Load(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Matrix.Rows() <= cd.Matrix.Rows() {
		t.Fatal("test premise broken: plain load not larger")
	}
}

func TestCompactFromCOOEmpty(t *testing.T) {
	cd, err := CompactFromCOO("empty", sparse.NewCOO(10, 10))
	if err != nil {
		t.Fatal(err)
	}
	if cd.Users.Len() != 0 || cd.Matrix.NNZ() != 0 {
		t.Fatalf("empty compact wrong: %d users, %d nnz", cd.Users.Len(), cd.Matrix.NNZ())
	}
}
