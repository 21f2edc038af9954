package serve

import (
	"fmt"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/quant"
	"repro/internal/sparse"
)

// Snapshot is one immutable serving state: a model, the optional training
// matrix used to exclude already-rated items, and its version identity.
// Handlers load a Snapshot once per request, so a concurrent swap can never
// mix factors from one model with the version or rated-set of another.
type Snapshot struct {
	Model *core.Model
	// Rated is the training matrix restricted to Model.Y's items, its
	// columns indexed like Y's rows (a shard's are local); nil serves
	// without rated-item exclusion.
	Rated *sparse.CSR
	// Version labels the model for cache keys and responses; Seq increases
	// by one per swap and breaks ties between reused labels.
	Version string
	Seq     uint64

	// ItemOffset and ItemTotal describe a sharded snapshot: Model.Y holds
	// only rows [ItemOffset, ItemOffset+Y.Rows) of a catalog of ItemTotal
	// items, and responses report global item indices. ItemTotal == 0 (the
	// zero value) means the snapshot holds the full catalog.
	ItemOffset int
	ItemTotal  int

	// Precision is the scoring precision this snapshot serves at; QY is
	// the quantized item-factor matrix backing it, in norm-ranked scan
	// order, built once per swap and nil at F32. It is the snapshot's only
	// quantized copy (Model.QY is nil). Fold-in solving always uses the
	// float32 Model.Y — only the top-N scan reads QY.
	Precision quant.Precision
	QY        *quant.Ranked

	// MaxNorm is max‖y_i‖₂ over Model.Y's rows (linalg.MaxRowNorm), the
	// bound the float32 scan's screen derives its cut from. A swap computes
	// it only when the snapshot serves at F32; elsewhere it stays 0, which
	// switches the screen off (metrics.PrepareScan).
	MaxNorm float64

	// userIdx maps external user IDs to dense rows for compact models;
	// built once per swap so request-path lookups are O(1) instead of the
	// O(m) scan core.Model.UserIndex does.
	userIdx map[int64]int
}

// UserIndex resolves an external user ID to the model's dense row.
func (sn *Snapshot) UserIndex(orig int64) (int, bool) {
	if sn.userIdx != nil {
		u, ok := sn.userIdx[orig]
		return u, ok
	}
	return sn.Model.UserIndex(orig)
}

// Store publishes the current Snapshot through an atomic pointer: readers
// never block, writers swap in O(1), and an in-flight request keeps its
// snapshot alive until it finishes.
type Store struct {
	cur  atomic.Pointer[Snapshot]
	seq  atomic.Uint64
	prec atomic.Uint32 // quant.Precision swaps encode Y at
}

// Current returns the live snapshot, or nil before the first Swap.
func (s *Store) Current() *Snapshot { return s.cur.Load() }

// SetPrecision selects the scoring precision for subsequent swaps (it
// does not re-encode the live snapshot; the next swap picks it up).
func (s *Store) SetPrecision(p quant.Precision) { s.prec.Store(uint32(p)) }

// Precision returns the precision subsequent swaps will serve at.
func (s *Store) Precision() quant.Precision { return quant.Precision(s.prec.Load()) }

// Swap atomically installs a new model. An empty version falls back to the
// model's own Meta.Version, then to "v<seq>".
func (s *Store) Swap(m *core.Model, rated *sparse.CSR, version string) *Snapshot {
	return s.swapShard(m, rated, version, 0, 0)
}

// swapShard installs a sharded model view: m.Y holds the slice of a
// total-item catalog starting at global index offset. total == 0 installs
// an ordinary full-catalog snapshot.
func (s *Store) swapShard(m *core.Model, rated *sparse.CSR, version string, offset, total int) *Snapshot {
	seq := s.seq.Add(1)
	if version == "" {
		version = m.Meta.Version
	}
	if version == "" {
		version = fmt.Sprintf("v%d", seq)
	}
	sn := &Snapshot{Model: m, Rated: rated, Version: version, Seq: seq,
		ItemOffset: offset, ItemTotal: total}
	if prec := s.Precision(); prec != quant.F32 {
		// Encode and rank once per swap, amortized over every request the
		// snapshot serves. A model decoded from a compressed checkpoint
		// already carries the matching quantized matrix: its rows are
		// permuted, never re-quantized. Encoding fails only on non-finite
		// factors, which the training guard prevents; if it happens anyway
		// the snapshot serves (and reports) float32 rather than refusing.
		qy := m.QY
		if qy == nil || qy.Prec != prec || qy.Rows != m.Y.Rows || qy.Cols != m.Y.Cols {
			qy, _ = quant.EncodeDense(m.Y, prec)
		}
		if qy != nil {
			sn.QY, sn.Precision = quant.Rank(qy), prec
		}
	}
	if sn.QY == nil {
		sn.MaxNorm = linalg.MaxRowNorm(m.Y)
	}
	if m.QY != nil {
		// The ranked copy replaces the natural-order matrix; holding the
		// caller's would keep a second quantized catalog alive per snapshot.
		view := *m
		view.QY = nil
		sn.Model = &view
	}
	if m.UserIDs != nil {
		sn.userIdx = make(map[int64]int, len(m.UserIDs))
		for i, id := range m.UserIDs {
			sn.userIdx[id] = i
		}
	}
	s.cur.Store(sn)
	return sn
}

// LoadSnapshotFiles reads a checkpoint (alstrain -out writes one) and, when
// ratingsPath is non-empty, the rating file it was trained on (aligned to
// the model's ID space for compact models) for rated-item exclusion.
func LoadSnapshotFiles(modelPath, ratingsPath string, oneBased bool) (*core.Model, *sparse.CSR, error) {
	st, err := checkpoint.Load(checkpoint.OS, modelPath)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: %w", err)
	}
	m := core.ModelOf(st)
	if ratingsPath == "" {
		return m, nil, nil
	}
	rated, err := core.AlignRatings(m, ratingsPath, oneBased)
	if err != nil {
		return nil, nil, err
	}
	return m, rated, nil
}
