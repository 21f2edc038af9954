package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/sparse"
)

// AlignRatings loads a rating file into the model's index space, as the
// row view: evaluation and rated-item exclusion read nothing else.
//
//   - For a compact model (trained with ID remapping), the file's external
//     IDs are translated through the model's stored ID tables; every user
//     and item in the file must exist in the model.
//   - For a plain model, IDs are used directly and the matrix is padded to
//     the model's dimensions; the file must not exceed them.
func AlignRatings(m *Model, path string, oneBased bool) (*sparse.CSR, error) {
	coo, _, err := dataset.ReadRatings(path, oneBased)
	if err != nil {
		return nil, err
	}
	if m.UserIDs != nil {
		if err := toModelIndex(coo.RowIdx, m.UserIDs, "user"); err != nil {
			return nil, err
		}
		if err := toModelIndex(coo.ColIdx, m.ItemIDs, "item"); err != nil {
			return nil, err
		}
	} else if coo.Rows > m.X.Rows || coo.Cols > m.Items() {
		return nil, fmt.Errorf("core: rating file (%dx%d) larger than model (%dx%d); was the model trained with -compact?",
			coo.Rows, coo.Cols, m.X.Rows, m.Items())
	}
	coo.Rows, coo.Cols = m.X.Rows, m.Items()
	return sparse.NewCSR(coo)
}

// toModelIndex rewrites external IDs in place to their rows in a compact
// model's ID table (which followed the training file's sorted IDs).
func toModelIndex(ids []int32, table []int64, what string) error {
	index := make(map[int64]int32, len(table))
	for i, id := range table {
		index[id] = int32(i)
	}
	for i, id := range ids {
		d, ok := index[int64(id)]
		if !ok {
			return fmt.Errorf("core: %s %d not in the model", what, id)
		}
		ids[i] = d
	}
	return nil
}

// UserIndex resolves an external user ID to the model's dense row: through
// the ID table for compact models, identity (with bounds check) otherwise.
func (m *Model) UserIndex(orig int64) (int, bool) {
	if m.UserIDs == nil {
		if orig < 0 || orig >= int64(m.X.Rows) {
			return 0, false
		}
		return int(orig), true
	}
	for i, id := range m.UserIDs {
		if id == orig {
			return i, true
		}
	}
	return 0, false
}

// ItemLabel returns the external ID for a dense item index (identity for
// plain models).
func (m *Model) ItemLabel(dense int) int64 {
	if m.ItemIDs == nil {
		return int64(dense)
	}
	return m.ItemIDs[dense]
}
