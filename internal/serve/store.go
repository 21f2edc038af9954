package serve

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/quant"
	"repro/internal/rtrace"
	"repro/internal/sparse"
)

// Snapshot is one immutable serving state: a model, the optional training
// matrix used to exclude already-rated items, and its version identity.
// Handlers load a Snapshot once per request, so a concurrent swap can never
// mix factors from one model with the version or rated-set of another.
type Snapshot struct {
	// Model holds the user factors, IDs and metadata. Its Y, the float32
	// item factors, is nil when the checkpoint was loaded at the precision
	// it stores (checkpoint.LoadAt): fold-in then decodes the rows it needs
	// from QY (itemRows).
	Model *core.Model
	// Items is the number of item rows the snapshot holds: the catalog, or
	// a shard's slice of it.
	Items int
	// Rated is the training matrix's pattern, coded for membership tests
	// (sparse.Gaps: column ids, no values) and restricted to the
	// snapshot's items, its columns indexed like Y's rows (a shard's are
	// local); nil serves without rated-item exclusion. Snapshots installed
	// from one rated set share it.
	Rated *sparse.Gaps
	// Version labels the model for cache keys and responses; Seq increases
	// by one per swap and breaks ties between reused labels.
	Version string
	Seq     uint64

	// ItemOffset and ItemTotal describe a sharded snapshot: it holds only
	// items [ItemOffset, ItemOffset+Items) of a catalog of ItemTotal items,
	// and responses report global item indices. ItemTotal == 0 (the zero
	// value) means the snapshot holds the full catalog.
	ItemOffset int
	ItemTotal  int

	// Precision is the scoring precision this snapshot serves at; QY is
	// the quantized item-factor matrix backing it, in norm-ranked scan
	// order, built once per swap and nil at F32. It is the snapshot's only
	// quantized copy (Model.QY is nil). The top-N scan reads QY; fold-in
	// solves in float32 over the rows itemRows gathers.
	Precision quant.Precision
	QY        *quant.Ranked

	// Screen is the int16 copy of Model.Y's rows the float32 scan screens
	// with (metrics.NewScreen): for a shard, of its slice alone. A swap
	// builds it only when the snapshot serves at F32; elsewhere, and where
	// the build or the model rules the screen out, it is nil and every row
	// gets its exact score.
	Screen *metrics.Screen

	// userIdx maps external user IDs to dense rows for compact models;
	// built once per swap so request-path lookups are O(1) instead of the
	// O(m) scan core.Model.UserIndex does.
	userIdx map[int64]int
}

// snapshotParts names the parts als_snapshot_bytes splits a snapshot into.
var snapshotParts = [...]string{"x", "y", "qy", "screen", "rated"}

// bytes is what sn's arrays hold, part by part in snapshotParts' order. A
// shard's X is the full one; its Y, QY, screen and rated set its slice's.
func (sn *Snapshot) bytes() [len(snapshotParts)]int {
	x, y := sn.Model.X, 0
	if sn.Model.Y != nil {
		y = 4 * sn.Model.Y.Rows * sn.Model.Y.Cols
	}
	return [...]int{4 * x.Rows * x.Cols, y, sn.QY.Bytes(), sn.Screen.Bytes(), sn.Rated.Bytes()}
}

// UserIndex resolves an external user ID to the model's dense row.
func (sn *Snapshot) UserIndex(orig int64) (int, bool) {
	if sn.userIdx != nil {
		u, ok := sn.userIdx[orig]
		return u, ok
	}
	return sn.Model.UserIndex(orig)
}

// itemRows gathers the float32 factors of the snapshot's item rows items
// (local indices, checked by the caller) into dst, row z at dst[z·K:],
// growing it as needed, and returns it. It is the one reader of float item
// rows on a request path: it copies them from Model.Y when the snapshot
// holds it, and otherwise decodes them from QY — bit for bit the rows
// checkpoint.Load's float32 Y holds, as both decode with
// quant.Matrix.Decode's arithmetic.
func (sn *Snapshot) itemRows(dst []float32, items []int32) []float32 {
	k := sn.Model.K
	dst = slices.Grow(dst[:0], len(items)*k)[:len(items)*k]
	for z, it := range items {
		row := dst[z*k : (z+1)*k]
		if sn.Model.Y != nil {
			copy(row, sn.Model.Y.Row(int(it)))
		} else {
			sn.QY.DecodeRow(row, int(it))
		}
	}
	return dst
}

// foldScratch is what a fold-in's Gram and RHS terms are accumulated from:
// the rated items' gathered rows and their indices into the gathered block.
type foldScratch struct {
	rows  []float32
	local []int32 // 0, 1, 2, …
}

// gramRHS writes the packed Gram terms Σ y_i·y_iᵀ and the RHS Σ r_i·y_i over
// sn's item rows items (local indices) with ratings into packed and rhs —
// linalg.GramRHSFused over the gathered rows, which sums the same values in
// the same order as over Y itself.
func (fs *foldScratch) gramRHS(sn *Snapshot, items []int32, ratings, packed, rhs []float32) {
	fs.rows = sn.itemRows(fs.rows, items)
	for len(fs.local) < len(items) {
		fs.local = append(fs.local, int32(len(fs.local)))
	}
	linalg.GramRHSFused(fs.rows, sn.Model.K, fs.local[:len(items)], ratings, packed, rhs)
}

// foldIn solves a cold-start user's factor from their ratings of sn's
// items against the frozen Y, as the ALS X update does (Eq. 4): the ratings
// checked by core.CheckFoldIn, the Gram and RHS terms accumulated over the
// rows itemRows gathers, and core.SolveFoldIn's solve.
func (sn *Snapshot) foldIn(items []int32, ratings []float32, lambda float32) ([]float32, error) {
	if err := core.CheckFoldIn(items, ratings, sn.Items); err != nil {
		return nil, err
	}
	k := sn.Model.K
	packed, xu := make([]float32, linalg.PackedLen(k)), make([]float32, k)
	var fs foldScratch
	fs.gramRHS(sn, items, ratings, packed, xu)
	return core.SolveFoldIn(packed, xu, k, lambda)
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

// swapShard installs a sharded model view: m's item rows are the slice of
// a total-item catalog starting at global index offset. total == 0
// installs an ordinary full-catalog snapshot. A model without Y serves at
// its QY's precision, the one it was loaded at. The snapshot holds what m
// holds, less the natural-order QY it ranks. The quantized encoding's
// stages are children of ctx's span: encode (when the model's own encoding
// does not match) and rank.
func (s *Store) swapShard(ctx context.Context, m *core.Model, rated *sparse.Gaps, version string, offset, total int) *Snapshot {
	seq := s.seq.Add(1)
	if version == "" {
		version = m.Meta.Version
	}
	if version == "" {
		version = fmt.Sprintf("v%d", seq)
	}
	sn := &Snapshot{Model: m, Items: m.Items(), Rated: rated, Version: version, Seq: seq,
		ItemOffset: offset, ItemTotal: total}
	prec := s.Precision()
	if m.Y == nil {
		prec = m.QY.Prec
	}
	if prec != quant.F32 {
		// Encode and rank once per swap, amortized over every request the
		// snapshot serves. A model decoded from a compressed checkpoint
		// already carries the matching quantized matrix: its rows are
		// permuted, never re-quantized. Encoding fails only on non-finite
		// factors, which the training guard prevents; if it happens anyway
		// the snapshot serves (and reports) float32 rather than refusing.
		qy := m.QY
		if qy == nil || qy.Prec != prec {
			_, span := rtrace.StartChild(ctx, "encode")
			qy, _ = quant.EncodeDense(m.Y, prec)
			span.End()
		}
		if qy != nil {
			_, span := rtrace.StartChild(ctx, "rank")
			sn.QY, sn.Precision = quant.Rank(qy), prec
			span.End()
		}
	}
	if sn.QY == nil {
		sn.Screen = metrics.NewScreen(m.Y)
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

// LoadSnapshotFiles reads a checkpoint (alstrain -out writes one) for a
// server scoring at precision prec (checkpoint.LoadAt) and, when
// ratingsPath is non-empty, the rating file it was trained on (aligned to
// the model's ID space for compact models) for rated-item exclusion.
func LoadSnapshotFiles(modelPath, ratingsPath string, oneBased bool, prec quant.Precision) (*core.Model, *sparse.CSR, error) {
	st, err := checkpoint.LoadAt(checkpoint.OS, modelPath, prec)
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
