package dataset

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/sparse"
)

// IDMap translates between the external IDs of a rating file and the dense
// 0-based indices the solver uses. Real datasets have sparse ID spaces —
// Netflix user IDs reach 2 649 429 for 480 189 actual users — so training
// on raw IDs would allocate (and iterate) millions of empty rows.
type IDMap struct {
	toOrig []int64 // sorted: dense index i is the i-th smallest external ID
}

// newIDMap builds a map over the distinct IDs among ids (dense indices
// follow the sorted external order for determinism) and rewrites ids in
// place to their dense indices.
func newIDMap(ids []int32) *IDMap {
	toDense := make(map[int64]int32)
	for _, id := range ids {
		toDense[int64(id)] = 0
	}
	sorted := make([]int64, 0, len(toDense))
	for id := range toDense {
		sorted = append(sorted, id)
	}
	slices.Sort(sorted)
	for i, id := range sorted {
		toDense[id] = int32(i)
	}
	for i, id := range ids {
		ids[i] = toDense[int64(id)]
	}
	return &IDMap{toOrig: sorted}
}

// Len is the number of distinct external IDs.
func (m *IDMap) Len() int { return len(m.toOrig) }

// Orig returns the external ID for a dense index.
func (m *IDMap) Orig(dense int) int64 { return m.toOrig[dense] }

// CompactDataset is a rating matrix with its ID translation tables.
type CompactDataset struct {
	*Dataset
	Users *IDMap
	Items *IDMap
}

// LoadCompact reads a rating file like Load but remaps user and item IDs to
// dense indices, returning the translation maps. Use it for real datasets
// whose ID spaces are sparse.
func LoadCompact(path string, oneBased bool) (*CompactDataset, error) {
	coo, st, err := ReadRatings(path, oneBased)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cd, err := CompactFromCOO(path, coo)
	if err != nil {
		return nil, err
	}
	st.BuildSeconds = time.Since(start).Seconds()
	cd.Ingest = st
	return cd, nil
}

// CompactFromCOO remaps an already-parsed COO matrix in place and builds
// the matrix from it, taking the COO over as sparse.NewMatrix does.
func CompactFromCOO(name string, coo *sparse.COO) (*CompactDataset, error) {
	um, im := newIDMap(coo.RowIdx), newIDMap(coo.ColIdx)
	coo.Rows, coo.Cols = um.Len(), im.Len()
	mx, err := sparse.NewMatrix(coo)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", name, err)
	}
	return &CompactDataset{
		Dataset: &Dataset{Name: name, Matrix: mx},
		Users:   um,
		Items:   im,
	}, nil
}
