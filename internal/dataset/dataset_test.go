package dataset

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

func TestPresetTable1Shapes(t *testing.T) {
	// The presets must carry exactly the paper's Table I numbers.
	want := []struct {
		name    string
		m, n, z int
	}{
		{"MVLE", 71567, 65133, 8000044},
		{"NTFX", 480189, 17770, 99072112},
		{"YMR1", 1948882, 98212, 115248575},
		{"YMR4", 7642, 11916, 211231},
	}
	for i, w := range want {
		p := Presets[i]
		if p.Name != w.name || p.Users != w.m || p.Items != w.n || p.NNZ != w.z {
			t.Errorf("preset %d = %s(%d,%d,%d), want %s(%d,%d,%d)",
				i, p.Name, p.Users, p.Items, p.NNZ, w.name, w.m, w.n, w.z)
		}
	}
}

func TestPresetByName(t *testing.T) {
	p, err := PresetByName("NTFX")
	if err != nil || p.Long != "NetFlix" {
		t.Fatalf("PresetByName(NTFX) = %v, %v", p, err)
	}
	if _, err := PresetByName("nope"); err == nil {
		t.Fatal("expected error for unknown preset")
	}
	p, err = PresetByName("Movielens10M")
	if err != nil || p.Name != "MVLE" {
		t.Fatalf("PresetByName by long name failed: %v %v", p, err)
	}
}

func TestScaledPreservesDensity(t *testing.T) {
	p := Netflix
	s := p.Scaled(0.01)
	origDensity := float64(p.NNZ) / (float64(p.Users) * float64(p.Items))
	newDensity := float64(s.NNZ) / (float64(s.Users) * float64(s.Items))
	if math.Abs(newDensity-origDensity)/origDensity > 0.1 {
		t.Fatalf("density drifted: %g -> %g", origDensity, newDensity)
	}
	if s.NNZ >= p.NNZ || s.Users >= p.Users {
		t.Fatal("Scaled did not shrink")
	}
}

func TestScaledPanicsOnBadFactor(t *testing.T) {
	for _, f := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Scaled(%g) did not panic", f)
				}
			}()
			Movielens.Scaled(f)
		}()
	}
}

func TestScaledTinyStaysRealizable(t *testing.T) {
	f := func(u uint8) bool {
		frac := (float64(u) + 1) / 10000 // very small scales
		s := YahooR4.Scaled(frac)
		return s.Users >= 8 && s.Items >= 8 && s.NNZ >= 16 && s.NNZ <= s.Users*s.Items
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := YahooR4.Scaled(0.05)
	a := p.Generate(42)
	b := p.Generate(42)
	if a.Matrix.NNZ() != b.Matrix.NNZ() {
		t.Fatalf("nnz differs across identical seeds: %d vs %d", a.Matrix.NNZ(), b.Matrix.NNZ())
	}
	for i := range a.Matrix.R.Val {
		if a.Matrix.R.Val[i] != b.Matrix.R.Val[i] || a.Matrix.R.ColIdx[i] != b.Matrix.R.ColIdx[i] {
			t.Fatal("payload differs across identical seeds")
		}
	}
	c := p.Generate(43)
	same := c.Matrix.NNZ() == a.Matrix.NNZ()
	if same {
		diff := false
		for i := range a.Matrix.R.Val {
			if a.Matrix.R.ColIdx[i] != c.Matrix.R.ColIdx[i] {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Fatal("different seeds produced identical matrices")
	}
}

func TestGenerateShapeAndRange(t *testing.T) {
	p := Movielens.Scaled(0.002)
	ds := p.Generate(1)
	mx := ds.Matrix
	if mx.Rows() != p.Users || mx.Cols() != p.Items {
		t.Fatalf("dims %dx%d, want %dx%d", mx.Rows(), mx.Cols(), p.Users, p.Items)
	}
	// NNZ should hit the target (generous attempt budget at this density).
	if mx.NNZ() < p.NNZ*9/10 {
		t.Fatalf("nnz %d < 90%% of target %d", mx.NNZ(), p.NNZ)
	}
	if err := mx.R.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, v := range mx.R.Val {
		if v < p.MinVal || v > p.MaxVal {
			t.Fatalf("rating %g out of [%g,%g]", v, p.MinVal, p.MaxVal)
		}
		// Half-star quantization.
		if r := math.Mod(float64(v)*2, 1); r != 0 {
			t.Fatalf("rating %g not half-star quantized", v)
		}
	}
}

func TestGenerateSkew(t *testing.T) {
	// The synthetic generator must produce the skewed degree distribution the
	// paper's imbalance argument depends on: CoV well above a uniform draw's.
	p := Netflix.Scaled(0.0005)
	ds := p.Generate(7)
	s := sparse.RowStats(ds.Matrix.R)
	if s.CoV < 0.8 {
		t.Fatalf("row-degree CoV = %.2f; want heavy skew (>0.8) for %s", s.CoV, p.Name)
	}
	if s.Max < 5*int(s.Mean+1) {
		t.Fatalf("max degree %d not heavy-tailed vs mean %.1f", s.Max, s.Mean)
	}
}

func TestSplit(t *testing.T) {
	p := YahooR4.Scaled(0.05)
	ds := p.Generate(3)
	train, test, err := Split(ds.Matrix, 0.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	total := train.NNZ() + test.NNZ()
	if total != ds.Matrix.NNZ() {
		t.Fatalf("split lost ratings: %d + %d != %d", train.NNZ(), test.NNZ(), ds.Matrix.NNZ())
	}
	frac := float64(test.NNZ()) / float64(total)
	if math.Abs(frac-0.2) > 0.05 {
		t.Fatalf("test fraction %g, want ~0.2", frac)
	}
	if train.Rows() != ds.Matrix.Rows() || test.Cols() != ds.Matrix.Cols() {
		t.Fatal("split changed logical dimensions")
	}
	// No rating may appear in both sides.
	for u := 0; u < train.Rows(); u++ {
		cols, _ := train.R.Row(u)
		for _, c := range cols {
			if test.R.At(u, int(c)) != 0 {
				t.Fatalf("rating (%d,%d) in both train and test", u, c)
			}
		}
	}
}

func TestSplitBadFrac(t *testing.T) {
	ds := YahooR4.Scaled(0.05).Generate(1)
	if _, _, err := Split(ds.Matrix, 1.0, 1); err == nil {
		t.Fatal("accepted testFrac = 1")
	}
	if _, _, err := Split(ds.Matrix, -0.1, 1); err == nil {
		t.Fatal("accepted negative testFrac")
	}
}

func TestLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ratings.txt")
	content := "0 1 4.5\n1 0 2.0\n1 2 3.0\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := Load(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Matrix.NNZ() != 3 || ds.Matrix.R.At(0, 1) != 4.5 {
		t.Fatalf("loaded matrix wrong: nnz=%d", ds.Matrix.NNZ())
	}
	if _, err := Load(filepath.Join(dir, "missing.txt"), false); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// TestLoadBytesPerRating: loading a rating file written row by row
// allocates at most 24 bytes a rating: 12 for the parsed columns, of which
// the CSR keeps the column indices and values, 8 for the CSC, and the row
// and column pointers and the read buffer. A build that copied the parsed
// arrays instead of adopting them would allocate 8 bytes a rating more.
func TestLoadBytesPerRating(t *testing.T) {
	ds := Movielens.ScaledForBench(0.05).Generate(3)
	path := filepath.Join(t.TempDir(), "ratings.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteTriples(f, ds.Matrix.R); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	loaded, err := Load(path, false)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	nnz := loaded.Matrix.NNZ()
	if nnz != ds.Matrix.NNZ() {
		t.Fatalf("loaded %d ratings, wrote %d", nnz, ds.Matrix.NNZ())
	}
	perRating := float64(after.TotalAlloc-before.TotalAlloc) / float64(nnz)
	t.Logf("Load of %d ratings: %.1f B a rating", nnz, perRating)
	if perRating > 24 {
		t.Errorf("Load of %d ratings allocated %.1f B a rating, want at most 24", nnz, perRating)
	}
}

func TestAliasSamplerDistribution(t *testing.T) {
	// A degenerate weight vector must always draw the heavy index.
	w := []float64{0.0001, 0.0001, 10000}
	rng := newTestRand()
	a := newAlias(w, rng)
	heavy := 0
	const draws = 2000
	for i := 0; i < draws; i++ {
		if a.draw(rng) == 2 {
			heavy++
		}
	}
	if heavy < draws*99/100 {
		t.Fatalf("heavy index drawn %d/%d times", heavy, draws)
	}
}

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(99)) }
