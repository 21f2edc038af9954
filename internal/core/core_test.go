package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/host"
	"repro/internal/kernels"
	"repro/internal/linalg"
	"repro/internal/sparse"
	"repro/internal/variant"
)

func testMatrix(t testing.TB) *sparse.Matrix {
	t.Helper()
	return dataset.YahooR4.ScaledForBench(0.05).Generate(21).Matrix
}

func TestTrainHostDefaults(t *testing.T) {
	mx := testMatrix(t)
	model, info, err := Train(mx, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if model.K != 10 {
		t.Fatalf("K default = %d", model.K)
	}
	if info.Platform != PlatformHost || info.Simulated {
		t.Fatalf("info = %+v", info)
	}
	if info.Seconds <= 0 {
		t.Fatal("no wall-clock recorded")
	}
	if rmse := model.RMSE(mx.R); math.IsNaN(rmse) || rmse > 1.2 {
		t.Fatalf("training RMSE = %g", rmse)
	}
	if mae := model.MAE(mx.R); math.IsNaN(mae) || mae >= model.RMSE(mx.R)+1 {
		t.Fatalf("MAE = %g", mae)
	}
}

func TestTrainSimPlatforms(t *testing.T) {
	mx := testMatrix(t)
	for _, platform := range []string{"GPU", "MIC", "CPU"} {
		model, info, err := Train(mx, Config{Platform: platform, Seed: 1, UseRecommended: true, Iterations: 2})
		if err != nil {
			t.Fatalf("%s: %v", platform, err)
		}
		if !info.Simulated || info.Seconds <= 0 {
			t.Fatalf("%s: info = %+v", platform, info)
		}
		var stageSum float64
		for _, s := range info.StageSeconds {
			stageSum += s
		}
		if stageSum <= 0 {
			t.Fatalf("%s: no stage breakdown", platform)
		}
		if rmse := model.RMSE(mx.R); math.IsNaN(rmse) {
			t.Fatalf("%s: NaN RMSE", platform)
		}
	}
}

// TestPlatformsAgree: host and all simulated platforms produce the same
// factors for the same seed — portability without numerical drift.
func TestPlatformsAgree(t *testing.T) {
	mx := testMatrix(t)
	ref, _, err := Train(mx, Config{Seed: 5, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, platform := range []string{"GPU", "MIC", "CPU"} {
		m, _, err := Train(mx, Config{Platform: platform, Seed: 5, Iterations: 2, UseRecommended: true})
		if err != nil {
			t.Fatal(err)
		}
		// CPU and MIC are recommended +local, which stages data and moves
		// no bit: the host default's row kernel exactly. The GPU's +register
		// is another variant, equal within float tolerance.
		tol := 0.0
		if platform == "GPU" {
			tol = 2e-3
		}
		if d := linalg.MaxAbsDiff(ref.X, m.X); d > tol {
			t.Errorf("%s: X deviates by %g", platform, d)
		}
	}
}

// TestSimulatedRunIsHostFactorsAndEstimateClock: a simulated run's model
// is the host's for the same variant, and its clock is the cost pass's —
// for the flat baseline and every extended variant on each platform. The
// host reference runs on one worker, the simulated runs on three: rows are
// independent, so neither the platform nor the pool moves a bit.
func TestSimulatedRunIsHostFactorsAndEstimateClock(t *testing.T) {
	mx := testMatrix(t)
	const k, lambda, iters, seed = 8, 0.1, 2, 4
	type run struct {
		name string
		flat bool
		v    variant.Options
	}
	runs := []run{{name: "flat baseline", flat: true}}
	for _, v := range variant.Extended() {
		runs = append(runs, run{name: v.ID(), v: v})
	}
	sameBits := func(a, b *linalg.Dense) bool {
		if a.Rows != b.Rows || a.Cols != b.Cols {
			return false
		}
		for i := range a.Data {
			if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
				return false
			}
		}
		return true
	}
	for _, r := range runs {
		ref, err := host.Train(mx, host.Config{K: k, Lambda: lambda, Iterations: iters, Seed: seed,
			Workers: 1, Flat: r.flat, Variant: r.v})
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		spec := kernels.FromVariant(r.v)
		if r.flat {
			spec = kernels.Baseline()
		}
		for _, platform := range []string{"GPU", "MIC", "CPU"} {
			dev, err := device.ByName(platform)
			if err != nil {
				t.Fatal(err)
			}
			m, info, err := Train(mx, Config{Platform: platform, K: k, Lambda: lambda, Iterations: iters,
				Seed: seed, Workers: 3, Baseline: r.flat, Variant: r.v})
			if err != nil {
				t.Fatalf("%s/%s: %v", platform, r.name, err)
			}
			if !sameBits(m.X, ref.X) || !sameBits(m.Y, ref.Y) {
				t.Errorf("%s/%s: factors are not host.Train's", platform, r.name)
			}
			est, err := kernels.Estimate(mx, kernels.Config{Device: dev, Spec: spec, K: k, Iterations: iters})
			if err != nil {
				t.Fatalf("%s/%s: %v", platform, r.name, err)
			}
			if math.Float64bits(info.Seconds) != math.Float64bits(est.Seconds()) {
				t.Errorf("%s/%s: Seconds %g, Estimate %g", platform, r.name, info.Seconds, est.Seconds())
			}
			for s, c := range est.Report.StageCycles {
				if want := dev.Seconds(c); math.Float64bits(info.StageSeconds[s]) != math.Float64bits(want) {
					t.Errorf("%s/%s: S%d %g s, Estimate %g s", platform, r.name, s+1, info.StageSeconds[s], want)
				}
			}
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, _, err := Train(nil, Config{}); err == nil {
		t.Fatal("accepted nil matrix")
	}
	coo := sparse.NewCOO(2, 2)
	empty, err := sparse.NewMatrix(coo)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Train(empty, Config{}); err == nil {
		t.Fatal("accepted empty matrix")
	}
	mx := testMatrix(t)
	if _, _, err := Train(mx, Config{Platform: "FPGA"}); err == nil {
		t.Fatal("accepted unknown platform")
	}
}

func TestBaselineRun(t *testing.T) {
	mx := testMatrix(t)
	_, info, err := Train(mx, Config{Platform: "GPU", Baseline: true, Seed: 1, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if info.Variant != "flat baseline" {
		t.Fatalf("variant = %q", info.Variant)
	}
	// The flat baseline must be slower than the recommended variant.
	_, best, err := Train(mx, Config{Platform: "GPU", UseRecommended: true, Seed: 1, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if info.Seconds <= best.Seconds {
		t.Fatalf("baseline (%.4fs) not slower than optimized (%.4fs)", info.Seconds, best.Seconds)
	}
}

func TestSelectVariantSim(t *testing.T) {
	mx := testMatrix(t)
	best, ms, err := SelectVariant(mx, "GPU", Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 12 {
		t.Fatalf("%d measurements, want 12 (8 paper + 4 fused)", len(ms))
	}
	// On the GPU the winner must include local memory plus the register
	// restructuring — either the paper's register strip or the fused kernel
	// that subsumes it (vectors change nothing there).
	if !best.Local || !(best.Register || best.Fused) {
		t.Fatalf("GPU empirical best = %+v, want local+register/fused", best)
	}
	// Simulated platform selection is deterministic.
	best2, _, err := SelectVariant(mx, "GPU", Config{Seed: 1})
	if err != nil || best2.Local != best.Local || best2.Register != best.Register {
		t.Fatalf("selection not deterministic: %+v vs %+v (%v)", best, best2, err)
	}
}

func TestSelectVariantCPUAvoidsRegisters(t *testing.T) {
	mx := testMatrix(t)
	best, _, err := SelectVariant(mx, "CPU", Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: on CPU/MIC registers+local degrades; with explicit vectors the
	// penalty is repaired, so acceptable winners are local(+vector) combos
	// but never register-without-vector.
	if best.Register && !best.Vector {
		t.Fatalf("CPU empirical best = %+v includes registers without vectors", best)
	}
	if !best.Local {
		t.Fatalf("CPU empirical best = %+v lacks local memory", best)
	}
}

func TestAutoVariantTrains(t *testing.T) {
	mx := testMatrix(t)
	model, info, err := Train(mx, Config{Platform: "MIC", AutoVariant: true, Seed: 2, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if model == nil || info.Variant == "" {
		t.Fatal("auto-variant run incomplete")
	}
}

func TestRecommendExcludesRated(t *testing.T) {
	mx := testMatrix(t)
	model, _, err := Train(mx, Config{Seed: 3, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	u := 0
	for mx.R.RowNNZ(u) == 0 {
		u++
	}
	top := model.Recommend(mx.R, u, 10)
	if len(top) == 0 {
		t.Fatal("no recommendations")
	}
	rated, _ := mx.R.Row(u)
	ratedSet := map[int]bool{}
	for _, c := range rated {
		ratedSet[int(c)] = true
	}
	for _, item := range top {
		if ratedSet[item] {
			t.Fatalf("recommended already-rated item %d", item)
		}
	}
}

// modelFile is the file alstrain -out writes for a model of cfg: the run's
// float32 State, plus a model block (format v4) when the model carries a
// version label or ID tables.
func modelFile(cfg Config, m *Model) ([]byte, error) {
	st := cfg.State("", cfg.Iterations, m.X, m.Y)
	st.Version, st.UserIDs, st.ItemIDs = m.Meta.Version, m.UserIDs, m.ItemIDs
	var buf bytes.Buffer
	err := checkpoint.Encode(&buf, st)
	return buf.Bytes(), err
}

// loadModel reads a model file as every program does: the checkpoint
// decoder, then ModelOf.
func loadModel(file []byte) (*Model, error) {
	st, err := checkpoint.Decode(bytes.NewReader(file))
	if err != nil {
		return nil, err
	}
	return ModelOf(st), nil
}

// TestModelSaveLoad: a trained model written as alstrain -out writes it
// (checkpoint.WriteFileAtomic of its run's State) and read back with
// checkpoint.Load and ModelOf keeps its factors bit for bit.
func TestModelSaveLoad(t *testing.T) {
	mx := testMatrix(t)
	cfg := Config{K: 4, Seed: 4, Iterations: 2}
	model, info, err := Train(mx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fsys := checkpoint.NewMemFS()
	if err := checkpoint.WriteFileAtomic(fsys, "model.bin", func(w io.Writer) error {
		return checkpoint.Encode(w, cfg.State(info.Variant, cfg.Iterations, model.X, model.Y))
	}); err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.Load(fsys, "model.bin")
	if err != nil {
		t.Fatal(err)
	}
	got := ModelOf(st)
	if got.K != model.K || got.X.Rows != model.X.Rows || got.Y.Rows != model.Y.Rows {
		t.Fatal("model dims changed across save/load")
	}
	if d := linalg.MaxAbsDiff(model.X, got.X); d != 0 {
		t.Fatalf("X changed by %g", d)
	}
	if d := linalg.MaxAbsDiff(model.Y, got.Y); d != 0 {
		t.Fatalf("Y changed by %g", d)
	}
	if got.UserIDs != nil || got.ItemIDs != nil {
		t.Fatal("a model without ID tables loaded with some")
	}
}

func TestModelSaveLoadWithIDMaps(t *testing.T) {
	mx := testMatrix(t)
	cfg := Config{K: 4, Seed: 4, Iterations: 1}
	model, _, err := Train(mx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	model.UserIDs = make([]int64, model.X.Rows)
	model.ItemIDs = make([]int64, model.Y.Rows)
	for i := range model.UserIDs {
		model.UserIDs[i] = int64(i)*7 + 1000
	}
	for i := range model.ItemIDs {
		model.ItemIDs[i] = int64(i)*3 + 5
	}
	file, err := modelFile(cfg, model)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loadModel(file)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.UserIDs, model.UserIDs) || !slices.Equal(got.ItemIDs, model.ItemIDs) {
		t.Fatal("ID tables changed across save/load")
	}
	if u, ok := got.UserIndex(1007); !ok || u != 1 || got.ItemLabel(1) != 8 {
		t.Fatalf("external IDs do not resolve: user 1007 -> %d,%v; item 1 -> %d", u, ok, got.ItemLabel(1))
	}
}

func TestModelSaveRejectsInconsistentIDMaps(t *testing.T) {
	mx := testMatrix(t)
	cfg := Config{K: 4, Seed: 4, Iterations: 1}
	model, _, err := Train(mx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	model.UserIDs = []int64{1} // wrong length, no item table
	if _, err := modelFile(cfg, model); err == nil {
		t.Fatal("save accepted one-sided ID tables")
	}
	model.ItemIDs = []int64{2}
	if _, err := modelFile(cfg, model); err == nil {
		t.Fatal("save accepted wrong-length ID tables")
	}
}

// TestLoadModelErrors: what is not a model file fails to load. An ALS2
// file, the model format before the checkpoint carried factors for
// serving, fails on its magic; the retired format is not read.
func TestLoadModelErrors(t *testing.T) {
	if _, err := loadModel(make([]byte, 64)); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("zero bytes: err = %v, want bad magic", err)
	}
	if _, err := loadModel(nil); err == nil {
		t.Fatal("accepted empty stream")
	}
	var als2 []byte // magic "ALS2", k, m, n, flags; then X and Y
	for _, v := range []uint64{0x414C5332, 2, 1, 1, 0} {
		als2 = binary.LittleEndian.AppendUint64(als2, v)
	}
	als2 = append(als2, make([]byte, 16)...)
	if _, err := loadModel(als2); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("ALS2 header: err = %v, want bad magic", err)
	}
	// An ID flag this reader does not know marks bytes it cannot skip.
	cfg := Config{K: 2}
	file, err := modelFile(cfg, &Model{K: 2, X: linalg.NewDense(1, 2), Y: linalg.NewDense(1, 2), Meta: Meta{Version: "v"}})
	if err != nil {
		t.Fatal(err)
	}
	file[len(file)-4-1] = 2 // the ID flag, before the CRC
	if _, err := loadModel(file); err == nil || !strings.Contains(err.Error(), "ID flag") {
		t.Fatalf("unknown ID flag: err = %v", err)
	}
}

func TestFeaturesOf(t *testing.T) {
	mx := testMatrix(t)
	f := FeaturesOf(mx, "GPU", 10)
	if f.DeviceKind != "GPU" || f.K != 10 || f.Rows != float64(mx.Rows()) {
		t.Fatalf("features wrong: %+v", f)
	}
	if f.MeanRowNNZ <= 0 || f.FixedFactor <= 0 {
		t.Fatalf("degenerate features: %+v", f)
	}
	// Usable by the ML selector end to end.
	sel := variant.NewMLSelector(1)
	sel.Train(variant.Sample{Features: f, Best: variant.Options{Local: true}})
	got, err := sel.Predict(f)
	if err != nil || !got.Local {
		t.Fatalf("selector round-trip failed: %+v %v", got, err)
	}
}

func TestTrackLossHistory(t *testing.T) {
	mx := testMatrix(t)
	_, info, err := Train(mx, Config{Seed: 6, Iterations: 3, TrackLoss: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.History) != 6 {
		t.Fatalf("history length %d, want 6 half-steps", len(info.History))
	}
}

// TestFoldInUser: a held-out user folded in against frozen item factors
// must predict their own ratings about as well as trained users do.
func TestFoldInUser(t *testing.T) {
	mx := testMatrix(t)
	// Train without the last user's ratings.
	last := mx.Rows() - 1
	for mx.R.RowNNZ(last) < 4 {
		last--
	}
	coo := sparse.NewCOO(mx.Rows(), mx.Cols())
	for u := 0; u < mx.Rows(); u++ {
		if u == last {
			continue
		}
		cols, vals := mx.R.Row(u)
		for j, c := range cols {
			coo.Append(u, int(c), vals[j])
		}
	}
	coo.Rows, coo.Cols = mx.Rows(), mx.Cols()
	train, err := sparse.NewMatrix(coo)
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := Train(train, Config{K: 8, Lambda: 0.1, Iterations: 6, Seed: 2, WeightedLambda: true})
	if err != nil {
		t.Fatal(err)
	}
	cols, vals := mx.R.Row(last)
	xu, err := model.FoldInUser(cols, vals, 0.1*float32(len(cols)))
	if err != nil {
		t.Fatal(err)
	}
	scores := model.ScoreItems(xu)
	var se float64
	for j, c := range cols {
		d := scores[c] - float64(vals[j])
		se += d * d
	}
	rmse := math.Sqrt(se / float64(len(cols)))
	if math.IsNaN(rmse) || rmse > 1.5 {
		t.Fatalf("fold-in RMSE on own ratings = %g", rmse)
	}
}

func TestFoldInErrors(t *testing.T) {
	mx := testMatrix(t)
	model, _, err := Train(mx, Config{K: 4, Iterations: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.FoldInUser([]int32{0, 1}, []float32{5}, 0.1); err == nil {
		t.Fatal("accepted mismatched lengths")
	}
	if _, err := model.FoldInUser([]int32{int32(mx.Cols()) + 5}, []float32{5}, 0.1); err == nil {
		t.Fatal("accepted out-of-range item")
	}
	x, err := model.FoldInUser(nil, nil, 0.1)
	if err != nil || len(x) != 4 {
		t.Fatalf("empty fold-in: %v %v", x, err)
	}
}

// TestAutoVariantHost: the empirical selector also works on the host
// (wall-clock probes); the winner varies by machine, so only completion
// and a full measurement set are asserted.
func TestAutoVariantHost(t *testing.T) {
	mx := testMatrix(t)
	best, ms, err := SelectVariant(mx, PlatformHost, Config{Seed: 1, K: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 12 {
		t.Fatalf("%d measurements", len(ms))
	}
	_ = best
	model, info, err := Train(mx, Config{AutoVariant: true, Seed: 1, K: 6, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if model == nil || info.Variant == "" {
		t.Fatal("host auto-variant run incomplete")
	}
}

func TestTrainSimWithExplicitVariantAndGrid(t *testing.T) {
	mx := testMatrix(t)
	_, info, err := Train(mx, Config{Platform: "CPU", Seed: 1, Iterations: 1,
		Variant: variant.Options{Vector: true}, Groups: 512, GroupSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if info.Variant != "thread batching+vector" {
		t.Fatalf("variant = %q", info.Variant)
	}
}
