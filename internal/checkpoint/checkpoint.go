// Package checkpoint makes long ALS training runs crash-safe: it
// persists both factor matrices plus the training state (iteration,
// hyperparameters, RNG seed, loss history) in a versioned, CRC-protected
// binary format, written atomically (temp file + fsync + rename + dir
// fsync) so a kill at any byte leaves either the previous checkpoint or
// the new one — never a torn file. Load verifies the checksum, Latest
// picks the newest checkpoint that actually decodes (falling back past
// torn or corrupt files), and GC bounds the directory to the last N. The
// same format is the trained model file (alstrain -out): a float32 State
// whose model block carries the serving label and a compact run's ID
// tables.
//
// The package doubles as the repo's fault-injection harness: every
// filesystem touch goes through the FS interface, and MemFS implements it
// with a durability model (volatile vs fsynced bytes) plus deterministic
// fault hooks — die at byte N, torn rename, short write, fsync failure —
// that the checkpoint, serving-watcher, and future distributed tests
// drive without sleeps or real crashes.
package checkpoint

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/host"
	"repro/internal/lebin"
	"repro/internal/linalg"
	"repro/internal/quant"
)

// Magic identifies a checkpoint file ("ALSK").
const Magic = uint32(0x414C534B)

// FormatVersion is bumped on any incompatible layout change; Load rejects
// versions it does not know but keeps decoding every version it ever
// wrote. Version 2 added the precision byte and quantized factor
// sections; version 3 added the training-mode block (implicit flag, α,
// solver, CG iterations, iALS++ block size); version 4 added the model
// block after Y (version label, ID tables). Version 1 and 2 files still
// load, decoding as explicit-mode Cholesky runs. Golden-file tests pin
// every version byte for byte.
const FormatVersion = uint32(4)

// formatV1 is the pre-quantization layout: no precision byte, factors
// always raw float32. formatV2 added the precision byte but predates the
// training-mode block. formatV3 is the layout Encode still writes for a
// State without a model block, so training checkpoints keep their bytes.
const (
	formatV1 = uint32(1)
	formatV2 = uint32(2)
	formatV3 = uint32(3)
)

const (
	maxVariantLen = 256
	maxVersionLen = 1 << 10
	maxHistory    = 1 << 16
	histEntry     = 4 + 1 + 8 + 8 // one history record: iteration, half, loss, elapsed
)

// ErrNoCheckpoint is returned by Latest/LoadLatest when the directory
// holds no valid checkpoint (including when it does not exist yet).
var ErrNoCheckpoint = errors.New("checkpoint: no valid checkpoint found")

// ErrCorrupt marks a checkpoint whose bytes decode invalid — a permanent
// fault of the file itself (bad magic, CRC mismatch, truncation, absurd
// header), as opposed to a transient I/O error opening it. Load wraps
// every decode failure with it so consumers (the serve watcher) can
// distinguish "reject this file forever" from "retry in a moment".
var ErrCorrupt = errors.New("checkpoint: corrupt")

// State is everything needed to resume training exactly where it stopped:
// the factor pair after Iteration completed full ALS iterations, the run's
// hyperparameters and seed (so a resume can refuse a mismatched
// configuration), and the loss history accumulated so far.
type State struct {
	Iteration      int     // completed full ALS iterations
	K              int     // latent dimensionality
	Lambda         float32 // regularization
	WeightedLambda bool    // ALS-WR λ|Ω|I convention
	Seed           int64   // initial-guess RNG seed
	Variant        string  // code-variant ID the run used (e.g. "tb+vec+fus")

	X, Y *linalg.Dense // user (m×k) and item (n×k) factors

	// Precision selects the on-disk factor encoding. F32 (the zero value)
	// writes raw float32 exactly like format v1; F16/I8 write per-row-scaled
	// quantized sections instead, shrinking the file 2–4×. X and Y above
	// stay float32 in memory either way — Decode dequantizes — so every
	// consumer of State keeps working regardless of the file's precision.
	Precision quant.Precision

	// QX, QY hold the quantized factors when Precision != F32: Encode
	// reuses them verbatim when they match (byte-stable round trips) and
	// Decode populates them so the serving layer can install the compressed
	// matrix without re-encoding. Nil on float32 checkpoints.
	QX, QY *quant.Matrix

	// Training-mode block (format v3): implicit-feedback flag with its
	// confidence scale α, the per-row solver, and the solver hyperparameters
	// that change the trajectory (CG iteration budget, iALS++ block size).
	// All are part of the strict resume-match contract — a run resumed under
	// a different mode or solver would not reproduce the checkpointed one.
	// v1/v2 files decode with the zero values: explicit, Cholesky.
	Implicit  bool
	Alpha     float32
	Solver    host.Solver
	CGIters   int
	BlockSize int

	History []host.IterStats // per-half-iteration loss when tracked

	// Model block (format v4): the serving version label, and the external
	// user and item ID of every row of X and Y when the run trained on a
	// compact (ID-remapped) dataset. Both are optional; a State that carries
	// neither encodes as format v3.
	Version          string
	UserIDs, ItemIDs []int64
}

// FileName returns the canonical file name for a checkpoint at the given
// iteration; lexicographic order equals iteration order.
func FileName(iteration int) string {
	return fmt.Sprintf("ckpt-%08d.alsck", iteration)
}

// ParseFileName extracts the iteration from a canonical checkpoint file
// name, reporting false for anything else (temp files, foreign files).
func ParseFileName(name string) (int, bool) {
	var it int
	if _, err := fmt.Sscanf(name, "ckpt-%d.alsck", &it); err != nil {
		return 0, false
	}
	if name != FileName(it) || it < 0 {
		return 0, false
	}
	return it, true
}

func (st *State) validate() error {
	if st.X == nil || st.Y == nil {
		return fmt.Errorf("checkpoint: state has nil factors")
	}
	if st.K <= 0 || st.X.Cols != st.K || st.Y.Cols != st.K {
		return fmt.Errorf("checkpoint: factor widths (%d,%d) do not match k=%d",
			st.X.Cols, st.Y.Cols, st.K)
	}
	if st.Iteration < 0 {
		return fmt.Errorf("checkpoint: negative iteration %d", st.Iteration)
	}
	if len(st.Variant) > maxVariantLen {
		return fmt.Errorf("checkpoint: variant label longer than %d bytes", maxVariantLen)
	}
	if len(st.History) > maxHistory {
		return fmt.Errorf("checkpoint: history longer than %d entries", maxHistory)
	}
	if !st.Precision.Valid() {
		return fmt.Errorf("checkpoint: unknown precision %v", st.Precision)
	}
	if st.Solver > host.SolverCG {
		return fmt.Errorf("checkpoint: unknown solver %d", st.Solver)
	}
	if math.IsNaN(float64(st.Alpha)) || math.IsInf(float64(st.Alpha), 0) || st.Alpha < 0 {
		return fmt.Errorf("checkpoint: invalid alpha %v", st.Alpha)
	}
	if st.CGIters < 0 || st.CGIters > math.MaxUint16 {
		return fmt.Errorf("checkpoint: CG iterations %d out of range", st.CGIters)
	}
	if st.BlockSize < 0 || st.BlockSize > math.MaxUint16 {
		return fmt.Errorf("checkpoint: block size %d out of range", st.BlockSize)
	}
	if len(st.Version) > maxVersionLen {
		return fmt.Errorf("checkpoint: version label longer than %d bytes", maxVersionLen)
	}
	if st.hasIDs() && (len(st.UserIDs) != st.X.Rows || len(st.ItemIDs) != st.Y.Rows) {
		return fmt.Errorf("checkpoint: ID table lengths (%d,%d) do not match factors (%d,%d)",
			len(st.UserIDs), len(st.ItemIDs), st.X.Rows, st.Y.Rows)
	}
	return nil
}

func (st *State) hasIDs() bool { return st.UserIDs != nil || st.ItemIDs != nil }

// hasModelBlock reports whether st encodes as format v4.
func (st *State) hasModelBlock() bool { return st.Version != "" || st.hasIDs() }

// EncodedSize returns the exact byte count Encode will produce for st,
// including the CRC trailer. The observability layer uses it to report
// checkpoint I/O volume without re-reading the file (the FS interface has
// no Stat). A size test pins it against real Encode output.
func (st *State) EncodedSize() int64 {
	const (
		header    = 7 * 8             // magic..seed, uint64 each
		fixed     = 4 + 1 + 1 + 2 + 4 // lambda + weighted + precision + variant len + history len
		modeBlock = 1 + 4 + 1 + 2 + 2 // v3: implicit + alpha + solver + cg iters + block size
		trailer   = 4                 // CRC-32C
	)
	n := int64(header + fixed + modeBlock + trailer)
	n += int64(len(st.Variant))
	n += int64(len(st.History)) * histEntry
	if st.X != nil {
		n += factorSize(st.X.Rows, st.X.Cols, st.Precision)
	}
	if st.Y != nil {
		n += factorSize(st.Y.Rows, st.Y.Cols, st.Precision)
	}
	if st.hasModelBlock() {
		n += 2 + int64(len(st.Version)) + 1 + 8*int64(len(st.UserIDs)+len(st.ItemIDs))
	}
	return n
}

// factorSize is the on-disk byte count of one factor matrix section: raw
// float32 elements at F32, or max-abs-error + per-row scales + compact
// payload for a quantized precision.
func factorSize(rows, cols int, prec quant.Precision) int64 {
	elems := int64(rows) * int64(cols)
	switch prec {
	case quant.F16:
		return 8 + 4*int64(rows) + 2*elems
	case quant.I8:
		return 8 + 4*int64(rows) + elems
	}
	return 4 * elems
}

// Encode writes st in the on-disk format: a little-endian header (magic,
// format version, dims, training state), the variant label and history,
// both factor matrices, the model block when st has one, and a trailing
// CRC-32C over every preceding byte.
func Encode(w io.Writer, st *State) error {
	if err := st.validate(); err != nil {
		return err
	}
	version := formatV3
	if st.hasModelBlock() {
		version = FormatVersion
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	lw := lebin.NewWriter(bw)
	lw.U64(uint64(Magic))
	lw.U64(uint64(version))
	lw.U64(uint64(st.K))
	lw.U64(uint64(st.X.Rows))
	lw.U64(uint64(st.Y.Rows))
	lw.U64(uint64(st.Iteration))
	lw.U64(uint64(st.Seed))
	lw.F32(st.Lambda)
	lw.Bool(st.WeightedLambda)
	lw.U8(uint8(st.Precision))
	// Format v3 training-mode block.
	lw.Bool(st.Implicit)
	lw.F32(st.Alpha)
	lw.U8(uint8(st.Solver))
	lw.U16(uint16(st.CGIters))
	lw.U16(uint16(st.BlockSize))
	lw.U16(uint16(len(st.Variant)))
	lw.Bytes([]byte(st.Variant))
	lw.U32(uint32(len(st.History)))
	for _, h := range st.History {
		lw.U32(uint32(h.Iteration))
		lw.Bool(h.Half == "Y")
		lw.U64(math.Float64bits(h.Loss))
		lw.U64(uint64(h.Elapsed))
	}
	if err := writeFactor(lw, st.X, st.QX, st.Precision); err != nil {
		return err
	}
	if err := writeFactor(lw, st.Y, st.QY, st.Precision); err != nil {
		return err
	}
	if version == FormatVersion {
		lw.U16(uint16(len(st.Version)))
		lw.Bytes([]byte(st.Version))
		lw.Bool(st.hasIDs())
		lw.I64s(st.UserIDs)
		lw.I64s(st.ItemIDs)
	}
	lw.U32(lw.Sum32())
	if err := lw.Err(); err != nil {
		return err
	}
	return bw.Flush()
}

// writeFactor emits one factor section at the state's precision. F32 is
// the raw float32 data, byte-compatible with format v1's payload. For a
// quantized precision the section is max-abs-error (float64 bits), the
// per-row scales, then the packed payload; an already-quantized matrix of
// matching shape is written verbatim (so decode→encode round trips are
// byte-stable), otherwise the float32 factors are quantized here. Write
// errors stay with lw; the error returned is the quantizer's.
func writeFactor(lw *lebin.Writer, d *linalg.Dense, q *quant.Matrix, prec quant.Precision) error {
	if prec == quant.F32 {
		lw.F32s(d.Data)
		return nil
	}
	if q == nil || q.Prec != prec || q.Rows != d.Rows || q.Cols != d.Cols {
		var err error
		if q, err = quant.EncodeDense(d, prec); err != nil {
			return err
		}
	}
	lw.U64(math.Float64bits(q.MaxAbsErr))
	lw.F32s(q.Scales)
	if prec == quant.F16 {
		lw.U16s(q.F16)
	} else {
		lw.I8s(q.I8)
	}
	return nil
}

// readFactor reads one factor section at the given precision, returning
// the float32 matrix (dequantized if needed) and, for quantized sections,
// the compact form. Each array is held to the bytes the file has left
// before it is allocated.
func readFactor(lr *lebin.Reader, rows, cols uint64, prec quant.Precision) (*linalg.Dense, *quant.Matrix, error) {
	if prec == quant.F32 {
		if !lr.Fits(rows, cols, 4) {
			return nil, nil, lr.Err()
		}
		d := linalg.NewDense(int(rows), int(cols))
		lr.F32s(d.Data)
		return d, nil, lr.Err()
	}
	if !lr.Fits(rows, 1, 4) {
		return nil, nil, lr.Err()
	}
	q := &quant.Matrix{
		Prec: prec, Rows: int(rows), Cols: int(cols),
		Scales:    make([]float32, rows),
		MaxAbsErr: math.Float64frombits(lr.U64()),
	}
	lr.F32s(q.Scales)
	if err := lr.Err(); err != nil {
		return nil, nil, err
	}
	if math.IsNaN(q.MaxAbsErr) || q.MaxAbsErr < 0 {
		return nil, nil, fmt.Errorf("invalid max-abs-error %v", q.MaxAbsErr)
	}
	for r, s := range q.Scales {
		// A negative or non-finite scale cannot come from EncodeDense and
		// would poison every score in its row; the CRC catches random
		// corruption, this catches a systematically bad writer.
		if s < 0 || math.IsNaN(float64(s)) || math.IsInf(float64(s), 0) {
			return nil, nil, fmt.Errorf("invalid row scale %v at row %d", s, r)
		}
	}
	if prec == quant.F16 {
		if lr.Fits(rows, cols, 2) {
			q.F16 = make([]uint16, rows*cols)
			lr.U16s(q.F16)
		}
	} else if lr.Fits(rows, cols, 1) {
		q.I8 = make([]int8, rows*cols)
		lr.I8s(q.I8)
	}
	if err := lr.Err(); err != nil {
		return nil, nil, err
	}
	return q.Decode(), q, nil
}

// readModelBlock reads format v4's version label and, when its flag is
// set, the m user and n item IDs, each count held to the bytes left.
func readModelBlock(lr *lebin.Reader, st *State, m, n uint64) error {
	vlen := uint64(lr.U16())
	if lr.Err() == nil && (vlen > maxVersionLen || !lr.Fits(vlen, 1, 1)) {
		return fmt.Errorf("implausible version length %d", vlen)
	}
	st.Version = string(lr.Take(int(vlen)))
	if ids := lr.U8(); ids > 1 {
		return fmt.Errorf("invalid ID flag %d", ids)
	} else if ids == 1 && lr.Fits(m, 1, 8) {
		st.UserIDs = make([]int64, m)
		lr.I64s(st.UserIDs)
		if lr.Fits(n, 1, 8) {
			st.ItemIDs = make([]int64, n)
			lr.I64s(st.ItemIDs)
		}
	}
	return lr.Err()
}

// Decode reads a checkpoint written by Encode, verifying format version,
// the CRC, and every count against the bytes the input has left. It
// returns an error — never panics, never allocates for bytes the input
// does not hold — on arbitrary corrupt input (the fuzz test holds it to
// that).
func Decode(r io.Reader) (*State, error) {
	lr := lebin.NewReader(r)
	var hdr [7]uint64
	for i := range hdr {
		hdr[i] = lr.U64()
	}
	if err := lr.Err(); err != nil {
		return nil, fmt.Errorf("checkpoint: reading header: %w", err)
	}
	if uint32(hdr[0]) != Magic {
		return nil, fmt.Errorf("checkpoint: bad magic %#x", hdr[0])
	}
	version := uint32(hdr[1])
	if version < formatV1 || version > FormatVersion {
		return nil, fmt.Errorf("checkpoint: unsupported format version %d (want %d..%d)",
			version, formatV1, FormatVersion)
	}
	k, m, n := hdr[2], hdr[3], hdr[4]
	if hdr[5] > 1<<32 {
		return nil, fmt.Errorf("checkpoint: implausible iteration %d", hdr[5])
	}
	st := &State{
		Iteration: int(hdr[5]),
		Seed:      int64(hdr[6]),
	}
	// Lambda, the per-version fields and the two lengths are read as one
	// block: past a read error every value is zero, and zero passes every
	// check below, so the error is looked at first.
	st.Lambda = lr.F32()
	weighted := lr.U8()
	var implicit uint8
	if version >= formatV2 {
		st.Precision = quant.Precision(lr.U8())
	}
	if version >= formatV3 {
		implicit = lr.U8()
		st.Alpha = lr.F32()
		st.Solver = host.Solver(lr.U8())
		st.CGIters = int(lr.U16())
		st.BlockSize = int(lr.U16())
	}
	vlen := lr.U16()
	if err := lr.Err(); err != nil {
		return nil, fmt.Errorf("checkpoint: reading training state: %w", err)
	}
	if weighted > 1 {
		return nil, fmt.Errorf("checkpoint: invalid lambda convention %d", weighted)
	}
	st.WeightedLambda = weighted == 1
	if !st.Precision.Valid() {
		return nil, fmt.Errorf("checkpoint: invalid precision %d", st.Precision)
	}
	if implicit > 1 {
		return nil, fmt.Errorf("checkpoint: invalid mode %d", implicit)
	}
	st.Implicit = implicit == 1
	if math.IsNaN(float64(st.Alpha)) || math.IsInf(float64(st.Alpha), 0) || st.Alpha < 0 {
		return nil, fmt.Errorf("checkpoint: invalid alpha %v", st.Alpha)
	}
	if st.Solver > host.SolverCG {
		return nil, fmt.Errorf("checkpoint: unknown solver %d", st.Solver)
	}
	if vlen > maxVariantLen || !lr.Fits(uint64(vlen), 1, 1) {
		return nil, fmt.Errorf("checkpoint: implausible variant length %d", vlen)
	}
	st.Variant = string(lr.Take(int(vlen)))
	histLen := lr.U32()
	if err := lr.Err(); err != nil {
		return nil, fmt.Errorf("checkpoint: reading variant: %w", err)
	}
	if histLen > maxHistory || !lr.Fits(uint64(histLen), 1, histEntry) {
		return nil, fmt.Errorf("checkpoint: implausible history length %d", histLen)
	}
	if histLen > 0 {
		st.History = make([]host.IterStats, histLen)
		for i := range st.History {
			h := &st.History[i]
			h.Iteration = int(lr.U32())
			half := lr.U8()
			h.Loss = math.Float64frombits(lr.U64())
			h.Elapsed = time.Duration(lr.U64())
			if err := lr.Err(); err != nil {
				return nil, fmt.Errorf("checkpoint: reading history: %w", err)
			}
			if half > 1 {
				return nil, fmt.Errorf("checkpoint: invalid history half %d", half)
			}
			h.Half = "X"
			if half == 1 {
				h.Half = "Y"
			}
		}
	}
	var ferr error
	if st.X, st.QX, ferr = readFactor(lr, m, k, st.Precision); ferr != nil {
		return nil, fmt.Errorf("checkpoint: reading X: %w", ferr)
	}
	if st.Y, st.QY, ferr = readFactor(lr, n, k, st.Precision); ferr != nil {
		return nil, fmt.Errorf("checkpoint: reading Y: %w", ferr)
	}
	if version >= FormatVersion {
		if err := readModelBlock(lr, st, m, n); err != nil {
			return nil, fmt.Errorf("checkpoint: reading model block: %w", err)
		}
	}
	st.K = int(k)
	sum := lr.Sum32()
	stored := lr.U32()
	if err := lr.Err(); err != nil {
		return nil, fmt.Errorf("checkpoint: reading checksum: %w", err)
	}
	if stored != sum {
		return nil, fmt.Errorf("checkpoint: checksum mismatch (stored %#x, computed %#x)", stored, sum)
	}
	return st, nil
}

// Save atomically writes st into dir as ckpt-<iteration>.alsck and
// returns the final path. The write order (temp file, fsync, rename,
// directory fsync) guarantees that a crash at any point leaves the
// previous checkpoints untouched and never exposes a half-written file
// under a valid name.
func Save(fsys FS, dir string, st *State) (string, error) {
	if err := st.validate(); err != nil {
		return "", err
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return "", err
	}
	path := filepath.Join(dir, FileName(st.Iteration))
	if err := WriteFileAtomic(fsys, path, func(w io.Writer) error {
		return Encode(w, st)
	}); err != nil {
		return "", err
	}
	return path, nil
}

// Load reads and verifies one checkpoint file. Open errors pass through
// untouched (they may be transient); decode failures are wrapped with
// ErrCorrupt — the file's bytes are bad and will stay bad.
func Load(fsys FS, path string) (*State, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w: %w", filepath.Base(path), ErrCorrupt, err)
	}
	return st, nil
}

// Entry is one canonically named checkpoint file of a directory.
type Entry struct {
	Name      string // the file's name inside the directory, not a path
	Iteration int
}

// List returns the canonical checkpoint entries of dir, newest iteration
// first. It is the one reader of a checkpoint directory: resume, GC and the
// serving watcher all walk this listing. A missing or unreadable directory
// is an empty listing.
func List(fsys FS, dir string) []Entry {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil
	}
	var entries []Entry
	for _, name := range names {
		if it, ok := ParseFileName(name); ok {
			entries = append(entries, Entry{name, it})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Iteration > entries[j].Iteration })
	return entries
}

// LoadLatest walks dir's listing once and returns the newest checkpoint
// that decodes cleanly, with its path, skipping over torn or corrupt files
// (a crashed writer can leave the highest-numbered file unreadable; recovery
// must fall back to the previous good one). The State returned is the one
// that was vetted: each candidate is opened and decoded exactly once.
// ErrNoCheckpoint when none qualify.
func LoadLatest(fsys FS, dir string) (*State, string, error) {
	for _, e := range List(fsys, dir) {
		path := filepath.Join(dir, e.Name)
		if st, err := Load(fsys, path); err == nil {
			return st, path, nil
		}
	}
	return nil, "", ErrNoCheckpoint
}

// GC bounds dir to the newest keep checkpoints (by iteration number) and
// removes abandoned temp files from interrupted writes. keep < 1 keeps 1.
func GC(fsys FS, dir string, keep int) error {
	if keep < 1 {
		keep = 1
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil
	}
	var firstErr error
	for _, name := range names {
		if len(name) > len(tmpPrefix) && name[:len(tmpPrefix)] == tmpPrefix {
			if err := fsys.Remove(filepath.Join(dir, name)); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	ckpts := List(fsys, dir)
	for _, e := range ckpts[min(keep, len(ckpts)):] {
		if err := fsys.Remove(filepath.Join(dir, e.Name)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
