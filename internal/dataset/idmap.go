package dataset

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/sparse"
)

// IDMap translates between the external IDs of a rating file and the dense
// 0-based indices the solver uses. Real datasets have sparse ID spaces —
// Netflix user IDs reach 2 649 429 for 480 189 actual users — so training
// on raw IDs would allocate (and iterate) millions of empty rows.
type IDMap struct {
	toDense map[int64]int32
	toOrig  []int64
}

// newIDMap builds a map over the given external IDs (deduplicated; dense
// indices follow the sorted external order for determinism).
func newIDMap(ids []int64) *IDMap {
	uniq := make(map[int64]struct{}, len(ids))
	for _, id := range ids {
		uniq[id] = struct{}{}
	}
	sorted := make([]int64, 0, len(uniq))
	for id := range uniq {
		sorted = append(sorted, id)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	m := &IDMap{toDense: make(map[int64]int32, len(sorted)), toOrig: sorted}
	for i, id := range sorted {
		m.toDense[id] = int32(i)
	}
	return m
}

// Len is the number of distinct external IDs.
func (m *IDMap) Len() int { return len(m.toOrig) }

// Dense returns the dense index for an external ID.
func (m *IDMap) Dense(orig int64) (int, bool) {
	d, ok := m.toDense[orig]
	return int(d), ok
}

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
	coo, st, err := readRatings(path, oneBased)
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

// CompactFromCOO remaps an already-parsed COO matrix.
func CompactFromCOO(name string, coo *sparse.COO) (*CompactDataset, error) {
	users := make([]int64, len(coo.Entries))
	items := make([]int64, len(coo.Entries))
	for i, e := range coo.Entries {
		users[i] = int64(e.Row)
		items[i] = int64(e.Col)
	}
	um, im := newIDMap(users), newIDMap(items)
	dense := sparse.NewCOO(um.Len(), im.Len())
	for _, e := range coo.Entries {
		u, _ := um.Dense(int64(e.Row))
		i, _ := im.Dense(int64(e.Col))
		dense.Append(u, i, e.Val)
	}
	mx, err := sparse.NewMatrix(dense)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", name, err)
	}
	return &CompactDataset{
		Dataset: &Dataset{Name: name, Matrix: mx},
		Users:   um,
		Items:   im,
	}, nil
}
