package checkpoint

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/linalg"
	"repro/internal/quant"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden checkpoint files")

// goldenState is a fixed small model: every byte of its encoding is
// pinned by testdata/golden_v3*.alsck. Changing the encoder in any way —
// field order, widths, endianness, CRC — breaks this test instead of
// silently breaking users' old checkpoints. A deliberate format change
// must bump FormatVersion, regenerate with -update-golden, and keep (or
// consciously drop) the ability to read the old versions.
func goldenState() *State {
	const k, m, n = 2, 3, 2
	x := linalg.NewDense(m, k)
	y := linalg.NewDense(n, k)
	for i := range x.Data {
		x.Data[i] = float32(i)*0.5 - 1
	}
	for i := range y.Data {
		y.Data[i] = 2 - float32(i)*0.25
	}
	return &State{
		Iteration: 7, K: k, Lambda: 0.1, WeightedLambda: true, Seed: 42,
		Variant: "tb+vec+fus", X: x, Y: y,
		History: []host.IterStats{
			{Iteration: 7, Half: "X", Loss: 3.5, Elapsed: 1500 * time.Microsecond},
			{Iteration: 7, Half: "Y", Loss: 3.25, Elapsed: 2500 * time.Microsecond},
		},
	}
}

func checkGolden(t *testing.T, name string, st *State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden after a deliberate format change)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		i := 0
		for i < len(want) && i < buf.Len() && want[i] == buf.Bytes()[i] {
			i++
		}
		t.Fatalf("on-disk checkpoint format drifted (%s): encoded %d bytes, golden %d bytes, first difference at offset %d.\n"+
			"If the change is deliberate: bump FormatVersion and regenerate with -update-golden.",
			name, buf.Len(), len(want), i)
	}
	return want
}

// goldenImplicitState exercises the v3 training-mode block: an implicit
// iALS++ run with a non-default solver hyperparameter set.
func goldenImplicitState() *State {
	st := goldenState()
	st.Implicit = true
	st.Alpha = 40
	st.Solver = host.SolverCG
	st.CGIters = 3
	return st
}

func TestGoldenCheckpointFormat(t *testing.T) {
	want := checkGolden(t, "golden_v3.alsck", goldenState())
	// The golden bytes must also decode back to the golden state.
	st, err := Decode(bytes.NewReader(want), quant.F32)
	if err != nil {
		t.Fatal(err)
	}
	statesEqual(t, goldenState(), st)
}

// TestGoldenImplicitFormat pins the v3 training-mode block byte for byte:
// the implicit flag, confidence α, solver selection and CG budget must
// round-trip through the golden file exactly.
func TestGoldenImplicitFormat(t *testing.T) {
	want := checkGolden(t, "golden_v3_implicit.alsck", goldenImplicitState())
	st, err := Decode(bytes.NewReader(want), quant.F32)
	if err != nil {
		t.Fatal(err)
	}
	statesEqual(t, goldenImplicitState(), st)
	if !st.Implicit || st.Alpha != 40 || st.Solver != host.SolverCG || st.CGIters != 3 || st.BlockSize != 0 {
		t.Fatalf("mode block decoded wrong: %+v", st)
	}
}

// TestGoldenQuantizedFormats pins the quantized factor sections byte for
// byte and checks the decoded factors sit within the recorded
// quantization error of the originals.
func TestGoldenQuantizedFormats(t *testing.T) {
	for _, prec := range []quant.Precision{quant.F16, quant.I8} {
		orig := goldenState()
		orig.Precision = prec
		want := checkGolden(t, fmt.Sprintf("golden_v3_%s.alsck", prec), orig)
		st, err := Decode(bytes.NewReader(want), quant.F32)
		if err != nil {
			t.Fatal(err)
		}
		if st.Precision != prec || st.QX == nil || st.QY == nil {
			t.Fatalf("%v: decoded precision %v, QX %v, QY %v", prec, st.Precision, st.QX, st.QY)
		}
		ref := goldenState()
		if d := float64(linalg.MaxAbsDiff(ref.X, st.X)); d > st.QX.MaxAbsErr+1e-12 {
			t.Errorf("%v: X moved by %g, recorded max error %g", prec, d, st.QX.MaxAbsErr)
		}
		if d := float64(linalg.MaxAbsDiff(ref.Y, st.Y)); d > st.QY.MaxAbsErr+1e-12 {
			t.Errorf("%v: Y moved by %g, recorded max error %g", prec, d, st.QY.MaxAbsErr)
		}
	}
}

// TestGoldenModelBlockFormat pins format v4 byte for byte: the v3 layout
// with a model block after Y (version label, ID flag, m + n IDs).
func TestGoldenModelBlockFormat(t *testing.T) {
	orig := withModelBlock(goldenState(), true)
	want := checkGolden(t, "golden_v4.alsck", orig)
	st, err := Decode(bytes.NewReader(want), quant.F32)
	if err != nil {
		t.Fatal(err)
	}
	statesEqual(t, orig, st)
}

// TestGoldenV1StillLoads is the backward-compatibility gate: the pinned
// format-v1 file (written before the precision byte existed) must keep
// decoding to the exact same state, reported as float32 precision and
// explicit-mode Cholesky defaults.
func TestGoldenV1StillLoads(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_v1.alsck"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Decode(bytes.NewReader(want), quant.F32)
	if err != nil {
		t.Fatalf("format v1 no longer decodes: %v", err)
	}
	if st.Precision != quant.F32 || st.QX != nil || st.QY != nil {
		t.Fatalf("v1 decoded as precision %v (QX %v, QY %v), want plain f32", st.Precision, st.QX, st.QY)
	}
	statesEqual(t, goldenState(), st)
}

// TestGoldenV2StillLoads: pinned format-v2 files (precision byte, no
// training-mode block) must keep decoding — including the quantized
// variants — with the mode fields defaulting to explicit Cholesky.
func TestGoldenV2StillLoads(t *testing.T) {
	for _, tc := range []struct {
		file string
		prec quant.Precision
	}{
		{"golden_v2.alsck", quant.F32},
		{"golden_v2_f16.alsck", quant.F16},
		{"golden_v2_i8.alsck", quant.I8},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		st, err := Decode(bytes.NewReader(want), quant.F32)
		if err != nil {
			t.Fatalf("format v2 (%s) no longer decodes: %v", tc.file, err)
		}
		if st.Precision != tc.prec {
			t.Fatalf("%s decoded as precision %v, want %v", tc.file, st.Precision, tc.prec)
		}
		if st.Implicit || st.Alpha != 0 || st.Solver != host.SolverCholesky || st.CGIters != 0 || st.BlockSize != 0 {
			t.Fatalf("%s: v2 file decoded with non-default mode block: %+v", tc.file, st)
		}
		if tc.prec == quant.F32 {
			statesEqual(t, goldenState(), st)
		}
	}
}
