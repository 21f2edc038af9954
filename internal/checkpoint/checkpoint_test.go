package checkpoint

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/linalg"
	"repro/internal/quant"
)

// testState builds a small deterministic State; the seed offsets the float
// patterns so different checkpoints are distinguishable.
func testState(iter int, seed float32) *State {
	const k, m, n = 3, 4, 5
	x := linalg.NewDense(m, k)
	y := linalg.NewDense(n, k)
	for i := range x.Data {
		x.Data[i] = seed + float32(i)*0.25
	}
	for i := range y.Data {
		y.Data[i] = -seed + float32(i)*0.5
	}
	return &State{
		Iteration: iter, K: k, Lambda: 0.1, WeightedLambda: iter%2 == 1,
		Seed: 2017, Variant: "tb+vec+fus", X: x, Y: y,
		History: []host.IterStats{
			{Iteration: 1, Half: "X", Loss: 12.5, Elapsed: 3 * time.Millisecond},
			{Iteration: 1, Half: "Y", Loss: 11.25, Elapsed: 7 * time.Millisecond},
		},
	}
}

// withModelBlock adds a format-v4 model block to st: a version label and,
// when ids is set, an external ID for every row of X and Y.
func withModelBlock(st *State, ids bool) *State {
	st.Version = "v7"
	if ids {
		st.UserIDs = make([]int64, st.X.Rows)
		st.ItemIDs = make([]int64, st.Y.Rows)
		for i := range st.UserIDs {
			st.UserIDs[i] = int64(1000 + 3*i)
		}
		for i := range st.ItemIDs {
			st.ItemIDs[i] = int64(-7 * i)
		}
	}
	return st
}

func statesEqual(t *testing.T, want, got *State) {
	t.Helper()
	if got.Iteration != want.Iteration || got.K != want.K ||
		got.Lambda != want.Lambda || got.WeightedLambda != want.WeightedLambda ||
		got.Seed != want.Seed || got.Variant != want.Variant ||
		got.Precision != want.Precision ||
		got.Implicit != want.Implicit || got.Alpha != want.Alpha ||
		got.Solver != want.Solver || got.CGIters != want.CGIters ||
		got.BlockSize != want.BlockSize || got.Version != want.Version {
		t.Fatalf("scalar state mismatch:\nwant %+v\ngot  %+v", want, got)
	}
	if !reflect.DeepEqual(want.UserIDs, got.UserIDs) || !reflect.DeepEqual(want.ItemIDs, got.ItemIDs) {
		t.Fatalf("ID tables mismatch:\nwant %v %v\ngot  %v %v", want.UserIDs, want.ItemIDs, got.UserIDs, got.ItemIDs)
	}
	if d := linalg.MaxAbsDiff(want.X, got.X); d != 0 {
		t.Fatalf("X differs by %g", d)
	}
	if d := linalg.MaxAbsDiff(want.Y, got.Y); d != 0 {
		t.Fatalf("Y differs by %g", d)
	}
	if !reflect.DeepEqual(want.History, got.History) {
		t.Fatalf("history mismatch:\nwant %+v\ngot  %+v", want.History, got.History)
	}
}

// TestEncodeDecodeRoundTrip: a State without a model block is written as
// format v3, one with a version label or ID tables as v4, and either
// decodes back to what was encoded.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name    string
		st      *State
		version uint32
	}{
		{"v3", testState(7, 1.5), formatV3},
		{"v4/version", withModelBlock(testState(7, 1.5), false), FormatVersion},
		{"v4/ids", withModelBlock(testState(8, 0.5), true), FormatVersion},
		{"v4/ids-only", func() *State { st := withModelBlock(testState(2, 1), true); st.Version = ""; return st }(), FormatVersion},
	} {
		var buf bytes.Buffer
		if err := Encode(&buf, tc.st); err != nil {
			t.Fatal(err)
		}
		if v := buf.Bytes()[8]; uint32(v) != tc.version {
			t.Errorf("%s: written as format v%d, want v%d", tc.name, v, tc.version)
		}
		got, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		statesEqual(t, tc.st, got)
	}
}

// TestQuantizedRoundTrip: a state saved at a quantized precision decodes
// with the compact factors attached and float32 factors dequantized
// within the recorded error bound, and a decode→encode round trip is
// byte-stable (the decoded quantized payload is written back verbatim,
// not re-quantized through the lossy float32 view).
func TestQuantizedRoundTrip(t *testing.T) {
	for _, prec := range []quant.Precision{quant.F16, quant.I8} {
		orig := testState(4, 1.5)
		orig.Precision = prec
		var buf bytes.Buffer
		if err := Encode(&buf, orig); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got.Precision != prec || got.QX == nil || got.QY == nil {
			t.Fatalf("%v: decoded precision %v, QX %v, QY %v", prec, got.Precision, got.QX, got.QY)
		}
		if d := float64(linalg.MaxAbsDiff(orig.X, got.X)); d > got.QX.MaxAbsErr+1e-12 {
			t.Errorf("%v: X moved by %g, recorded max error %g", prec, d, got.QX.MaxAbsErr)
		}
		if d := float64(linalg.MaxAbsDiff(orig.Y, got.Y)); d > got.QY.MaxAbsErr+1e-12 {
			t.Errorf("%v: Y moved by %g, recorded max error %g", prec, d, got.QY.MaxAbsErr)
		}
		var again bytes.Buffer
		if err := Encode(&again, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Errorf("%v: decode→encode is not byte-stable", prec)
		}
	}
}

// TestEncodedSizeMatchesEncode pins EncodedSize to the real on-disk byte
// count, with and without history, with an empty variant label, and at
// every precision.
func TestEncodedSizeMatchesEncode(t *testing.T) {
	states := []*State{testState(7, 1.5), testState(2, 0), testState(3, 1), testState(4, 1),
		withModelBlock(testState(5, 1), false), withModelBlock(testState(6, 1), true), withModelBlock(testState(7, 1), true)}
	states[1].History = nil
	states[1].Variant = ""
	states[2].Precision = quant.F16
	states[3].Precision = quant.I8
	states[6].Precision = quant.I8
	for i, st := range states {
		var buf bytes.Buffer
		if err := Encode(&buf, st); err != nil {
			t.Fatal(err)
		}
		if got, want := st.EncodedSize(), int64(buf.Len()); got != want {
			t.Errorf("state %d: EncodedSize() = %d, Encode wrote %d bytes", i, got, want)
		}
	}
}

func TestDecodeRejectsBitFlips(t *testing.T) {
	for _, st := range []*State{testState(3, 0.25), withModelBlock(testState(3, 0.25), true)} {
		var buf bytes.Buffer
		if err := Encode(&buf, st); err != nil {
			t.Fatal(err)
		}
		enc := buf.Bytes()
		// Flip one bit at a spread of offsets; every flip must be rejected
		// (header checks or the CRC trailer), never silently accepted.
		for off := 0; off < len(enc); off += 17 {
			bad := append([]byte(nil), enc...)
			bad[off] ^= 0x40
			if _, err := Decode(bytes.NewReader(bad)); err == nil {
				t.Fatalf("v%d: bit flip at offset %d accepted", enc[8], off)
			}
		}
		// Truncations at every length must error too.
		for cut := 0; cut < len(enc); cut += 13 {
			if _, err := Decode(bytes.NewReader(enc[:cut])); err == nil {
				t.Fatalf("v%d: truncation to %d bytes accepted", enc[8], cut)
			}
		}
	}
}

func TestSaveLoadLatestGC(t *testing.T) {
	for _, tc := range []struct {
		name string
		fsys FS
		dir  string
	}{
		{"memfs", NewMemFS(), "ckpts"},
		{"osfs", OS, filepath.Join(t.TempDir(), "ckpts")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := LoadLatest(tc.fsys, tc.dir); !errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("LoadLatest on empty dir = %v, want ErrNoCheckpoint", err)
			}
			var states []*State
			for it := 1; it <= 5; it++ {
				st := testState(it, float32(it))
				states = append(states, st)
				if _, err := Save(tc.fsys, tc.dir, st); err != nil {
					t.Fatal(err)
				}
			}
			got, path, err := LoadLatest(tc.fsys, tc.dir)
			if err != nil {
				t.Fatal(err)
			}
			if got.Iteration != 5 || filepath.Base(path) != FileName(5) {
				t.Fatalf("LoadLatest = %s iter %d, want %s iter 5", path, got.Iteration, FileName(5))
			}
			statesEqual(t, states[4], got)

			if err := GC(tc.fsys, tc.dir, 2); err != nil {
				t.Fatal(err)
			}
			names, err := tc.fsys.ReadDir(tc.dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 2 || names[0] != FileName(4) || names[1] != FileName(5) {
				t.Fatalf("after GC keep 2: %v", names)
			}
		})
	}
}

func TestLatestSkipsCorruptNewest(t *testing.T) {
	fsys := NewMemFS()
	good := testState(2, 1)
	if _, err := Save(fsys, "ckpts", good); err != nil {
		t.Fatal(err)
	}
	// A higher-numbered file full of garbage must be skipped, not returned
	// and not fatal.
	fsys.WriteFile(filepath.Join("ckpts", FileName(9)), []byte("not a checkpoint at all"))
	st, path, err := LoadLatest(fsys, "ckpts")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != FileName(2) {
		t.Fatalf("LoadLatest picked %s, want fallback to %s", path, FileName(2))
	}
	statesEqual(t, good, st)
}

// countingFS counts the Opens of each path on their way to the wrapped FS.
type countingFS struct {
	FS
	opens map[string]int
}

func (c countingFS) Open(name string) (io.ReadCloser, error) {
	c.opens[filepath.Base(name)]++
	return c.FS.Open(name)
}

// TestLoadLatestReadsEachCandidateOnce: a resume (and every divergence
// rollback) costs one open, one CRC pass and one factor-sized allocation per
// candidate it has to look at — the State returned is the one that was
// vetted, not a second decode of the same path — and nothing older than the
// first good checkpoint is touched.
func TestLoadLatestReadsEachCandidateOnce(t *testing.T) {
	mem := NewMemFS()
	for it := 1; it <= 3; it++ {
		if _, err := Save(mem, "ckpts", testState(it, float32(it))); err != nil {
			t.Fatal(err)
		}
	}
	mem.WriteFile(filepath.Join("ckpts", FileName(9)), []byte("torn"))
	fsys := countingFS{FS: mem, opens: map[string]int{}}
	st, path, err := LoadLatest(fsys, "ckpts")
	if err != nil || st.Iteration != 3 || filepath.Base(path) != FileName(3) {
		t.Fatalf("LoadLatest = iteration %v at %s, %v", st, path, err)
	}
	want := map[string]int{FileName(9): 1, FileName(3): 1}
	if !reflect.DeepEqual(fsys.opens, want) {
		t.Fatalf("opens per file = %v, want %v", fsys.opens, want)
	}
}

func TestGCRemovesTempFiles(t *testing.T) {
	fsys := NewMemFS()
	if _, err := Save(fsys, "ckpts", testState(1, 1)); err != nil {
		t.Fatal(err)
	}
	fsys.WriteFile(filepath.Join("ckpts", tmpPrefix+FileName(2)), []byte("abandoned partial write"))
	if err := GC(fsys, "ckpts", 3); err != nil {
		t.Fatal(err)
	}
	names, err := fsys.ReadDir("ckpts")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != FileName(1) {
		t.Fatalf("after GC: %v, want only %s", names, FileName(1))
	}
}

func TestParseFileName(t *testing.T) {
	for _, tc := range []struct {
		name string
		iter int
		ok   bool
	}{
		{FileName(0), 0, true},
		{FileName(12), 12, true},
		{FileName(99999999), 99999999, true},
		{"ckpt-12.alsck", 0, false}, // not zero-padded
		{tmpPrefix + FileName(3), 0, false},
		{"model.bin", 0, false},
		{"ckpt--0000001.alsck", 0, false},
	} {
		it, ok := ParseFileName(tc.name)
		if ok != tc.ok || (ok && it != tc.iter) {
			t.Errorf("ParseFileName(%q) = (%d,%v), want (%d,%v)", tc.name, it, ok, tc.iter, tc.ok)
		}
	}
}

func TestEncodeValidatesState(t *testing.T) {
	var buf bytes.Buffer
	bad := testState(1, 1)
	bad.X = nil
	if err := Encode(&buf, bad); err == nil {
		t.Fatal("nil factors accepted")
	}
	bad = testState(1, 1)
	bad.K = 2 // mismatched with 3-wide factors
	if err := Encode(&buf, bad); err == nil {
		t.Fatal("mismatched k accepted")
	}
	bad = testState(1, 1)
	bad.Iteration = -1
	if err := Encode(&buf, bad); err == nil {
		t.Fatal("negative iteration accepted")
	}
	bad = testState(1, 1)
	bad.Precision = quant.Precision(9)
	if err := Encode(&buf, bad); err == nil {
		t.Fatal("unknown precision accepted")
	}
	bad = withModelBlock(testState(1, 1), true)
	bad.ItemIDs = nil
	if err := Encode(&buf, bad); err == nil {
		t.Fatal("one ID table without the other accepted")
	}
	bad = withModelBlock(testState(1, 1), true)
	bad.UserIDs = bad.UserIDs[1:]
	if err := Encode(&buf, bad); err == nil {
		t.Fatal("ID table shorter than its factor accepted")
	}
	bad = testState(1, 1)
	bad.Version = string(make([]byte, maxVersionLen+1))
	if err := Encode(&buf, bad); err == nil {
		t.Fatal("over-long version label accepted")
	}
}

func TestWriteFileAtomicReplacesOnlyOnSuccess(t *testing.T) {
	fsys := NewMemFS()
	fsys.MkdirAll("d")
	path := filepath.Join("d", "model.bin")
	if err := WriteFileAtomic(fsys, path, func(w io.Writer) error {
		_, err := w.Write([]byte("version-1"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// A failing rewrite must leave the original untouched and no temp file.
	fsys.SetFaults(Faults{FailWriteAfter: fsys.BytesWritten() + 3})
	err := WriteFileAtomic(fsys, path, func(w io.Writer) error {
		_, err := w.Write([]byte("version-2"))
		return err
	})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	got, ok := fsys.ReadFile(path)
	if !ok || string(got) != "version-1" {
		t.Fatalf("file = %q,%v; want intact version-1", got, ok)
	}
	names, _ := fsys.ReadDir("d")
	if len(names) != 1 {
		t.Fatalf("leftover entries: %v", names)
	}
}
