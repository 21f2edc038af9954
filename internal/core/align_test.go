package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
)

func writeRatings(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "r.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// compactModel mirrors what alstrain -compact does: remap, train, attach
// the ID tables.
func compactModel(t *testing.T) (*Model, string) {
	t.Helper()
	// Sparse external IDs: users {7, 500, 9000}, items {33, 1000, 77}.
	path := writeRatings(t, "7 1000 4\n9000 1000 2\n500 33 3\n7 33 5\n500 77 1\n9000 77 4\n")
	cd, err := dataset.LoadCompact(path, false)
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := Train(cd.Matrix, Config{K: 4, Lambda: 0.1, Iterations: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	model.UserIDs = make([]int64, cd.Users.Len())
	for i := range model.UserIDs {
		model.UserIDs[i] = cd.Users.Orig(i)
	}
	model.ItemIDs = make([]int64, cd.Items.Len())
	for i := range model.ItemIDs {
		model.ItemIDs[i] = cd.Items.Orig(i)
	}
	return model, path
}

func TestAlignRatingsCompact(t *testing.T) {
	model, path := compactModel(t)
	mx, err := AlignRatings(model, path, false)
	if err != nil {
		t.Fatal(err)
	}
	if mx.NumRows != model.X.Rows || mx.NumCols != model.Y.Rows {
		t.Fatalf("aligned dims %dx%d vs model %dx%d", mx.NumRows, mx.NumCols, model.X.Rows, model.Y.Rows)
	}
	if mx.NNZ() != 6 {
		t.Fatalf("aligned nnz = %d", mx.NNZ())
	}
	// The rating <7, 33, 5> must land where the model thinks user 7 and
	// item 33 live.
	u, ok := model.UserIndex(7)
	if !ok {
		t.Fatal("user 7 missing")
	}
	var item int
	found := false
	for i := range model.ItemIDs {
		if model.ItemIDs[i] == 33 {
			item, found = i, true
		}
	}
	if !found {
		t.Fatal("item 33 missing from model")
	}
	if got := mx.At(u, item); got != 5 {
		t.Fatalf("aligned value = %g, want 5", got)
	}
	if model.ItemLabel(item) != 33 {
		t.Fatalf("ItemLabel(%d) = %d", item, model.ItemLabel(item))
	}
}

func TestAlignRatingsCompactRejectsUnknown(t *testing.T) {
	model, _ := compactModel(t)
	stranger := writeRatings(t, "123456 1000 3\n")
	if _, err := AlignRatings(model, stranger, false); err == nil {
		t.Fatal("accepted a user the model never saw")
	}
	newItem := writeRatings(t, "7 424242 3\n")
	if _, err := AlignRatings(model, newItem, false); err == nil {
		t.Fatal("accepted an item the model never saw")
	}
}

func TestAlignRatingsPlain(t *testing.T) {
	mx := testMatrix(t)
	model, _, err := Train(mx, Config{K: 4, Iterations: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A small file inside the model's index space: padded to model dims.
	path := writeRatings(t, "0 1 4\n2 0 2\n")
	aligned, err := AlignRatings(model, path, false)
	if err != nil {
		t.Fatal(err)
	}
	if aligned.NumRows != model.X.Rows || aligned.NumCols != model.Y.Rows {
		t.Fatalf("not padded: %dx%d", aligned.NumRows, aligned.NumCols)
	}
	// A file exceeding the model must be rejected with a hint.
	big := writeRatings(t, fmt.Sprintf("%d 1 4\n", model.X.Rows+10))
	if _, err := AlignRatings(model, big, false); err == nil {
		t.Fatal("accepted oversized rating file")
	}
}

func TestUserIndexPlain(t *testing.T) {
	mx := testMatrix(t)
	model, _, err := Train(mx, Config{K: 4, Iterations: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if u, ok := model.UserIndex(3); !ok || u != 3 {
		t.Fatalf("UserIndex(3) = %d,%v", u, ok)
	}
	if _, ok := model.UserIndex(int64(model.X.Rows)); ok {
		t.Fatal("accepted out-of-range user")
	}
	if _, ok := model.UserIndex(-1); ok {
		t.Fatal("accepted negative user")
	}
	if model.ItemLabel(5) != 5 {
		t.Fatal("plain ItemLabel not identity")
	}
}
