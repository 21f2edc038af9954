package serve_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/e2e"
	"repro/internal/linalg"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// TestServedEqualsOffline is the round trip from what the trainer wrote to
// what the server answers, through the real binaries: alsgen writes a rating
// file, alstrain trains on all of it into a model file and a checkpoint
// directory, alsserve follows that directory, and alsrecommend ranks the
// same users offline from the model file. The model file is a checkpoint
// holding the final checkpoint's factors, and every reader refuses it with
// one factor byte flipped. At f32 the served top-10 must be alsrecommend's,
// item for item in order, also from a server started with -model and
// -watch together. At int8 (checkpoints written and
// served quantized) every served score must sit within the quantization
// bounds of the offline score of the same item: the max-abs error of Y the
// server reports (als_quant_max_abs_error) times ‖x̃‖₁, plus the
// checkpoint's max-abs error of X times ‖y‖₁ — the user factors a quantized
// checkpoint hands the server are dequantized ones.
func TestServedEqualsOffline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the alsgen/alstrain/alsserve/alsrecommend binaries")
	}
	dir := t.TempDir()
	alstrain, alsserve, alsrecommend := e2e.Build(t, "alstrain"), e2e.Build(t, "alsserve"), e2e.Build(t, "alsrecommend")

	ratings := filepath.Join(dir, "ratings.txt")
	e2e.Run(t, e2e.Build(t, "alsgen"), "-preset", "YMR4", "-scale", "0.02", "-seed", "23", "-out", ratings)
	model := filepath.Join(dir, "model.bin")
	train := func(ckpts, precision string) {
		e2e.Run(t, alstrain, "-input", ratings, "-one-based=false", "-test-frac", "0",
			"-k", "12", "-iters", "3", "-seed", "23", "-out", model,
			"-checkpoint-dir", ckpts, "-checkpoint-precision", precision)
	}
	serveDir := func(ckpts, precision string, args ...string) (base string) {
		p := e2e.Start(t, alsserve, append([]string{"-watch", ckpts, "-ratings", ratings, "-one-based=false",
			"-precision", precision, "-addr", "127.0.0.1:0"}, args...)...)
		return "http://" + p.WaitLine("alsserve: listening on ")
	}
	const n = 10
	served := func(base string, user int) []serve.RecItem {
		var rec serve.RecommendResponse
		e2e.GetJSON(t, fmt.Sprintf("%s/v1/recommend?user=%d&n=%d", base, user, n), &rec)
		if len(rec.Items) != n || rec.Version != "ckpt-3" {
			t.Fatalf("user %d: %d items at version %q, want %d from the final checkpoint", user, len(rec.Items), rec.Version, n)
		}
		return rec.Items
	}

	// f32: the last checkpoint holds the model file's factors, and both
	// sides rank them with the same exclusions and the same tie-breaks.
	f32 := filepath.Join(dir, "ckpt-f32")
	train(f32, "f32")
	written, err := checkpoint.Load(checkpoint.OS, model)
	if err != nil {
		t.Fatal(err)
	}
	last, err := checkpoint.Load(checkpoint.OS, filepath.Join(f32, checkpoint.FileName(3)))
	if err != nil {
		t.Fatal(err)
	}
	if linalg.MaxAbsDiff(written.X, last.X) != 0 || linalg.MaxAbsDiff(written.Y, last.Y) != 0 {
		t.Fatal("the -out file's factors are not the final checkpoint's")
	}
	refuseFlipped(t, model, ratings, alsrecommend, alsserve)
	var users []int
	var list []string
	for u := 0; u < 24; u++ {
		users = append(users, u*7)
		list = append(list, strconv.Itoa(u*7))
	}
	offline := func(n int) map[int][]serve.RecItem {
		out := e2e.Run(t, alsrecommend, "-model", model, "-ratings", ratings,
			"-one-based=false", "-users", strings.Join(list, ","), "-n", strconv.Itoa(n))
		return parseRecommend(t, out)
	}
	// -model with -watch: the watcher's swaps exclude the -model file's
	// rated items too.
	for _, mode := range [][]string{nil, {"-model", model}} {
		base := serveDir(f32, "f32", mode...)
		for u, want := range offline(n) {
			for rank, got := range served(base, u) {
				if got.Item != want[rank].Item || math.Abs(got.Score-want[rank].Score) > 0.0005 {
					t.Errorf("f32 %v user %d rank %d: served item %d (%.4f), offline item %d (%.3f)",
						mode, u, rank+1, got.Item, got.Score, want[rank].Item, want[rank].Score)
				}
			}
		}
	}

	// int8: same seed, so the same model file; the checkpoints carry int8
	// X and Y with their max-abs errors.
	i8 := filepath.Join(dir, "ckpt-i8")
	train(i8, "i8")
	st, err := checkpoint.Load(checkpoint.OS, filepath.Join(i8, checkpoint.FileName(3)))
	if err != nil {
		t.Fatal(err)
	}
	base := serveDir(i8, "i8")
	errY := e2e.Scrape(t, base).Sum("als_quant_max_abs_error")
	if errY <= 0 || errY != st.QY.MaxAbsErr {
		t.Fatalf("served max-abs error %g, the checkpoint's is %g", errY, st.QY.MaxAbsErr)
	}
	ratedBytes(t, ratings, base, serveDir(i8, "i8", "-shard", "1/2"), st.Y.Rows)
	all := offline(st.Y.Rows)
	for _, u := range users {
		score := map[int]float64{}
		for _, it := range all[u] {
			score[it.Item] = it.Score
		}
		for _, got := range served(base, u) {
			want, ok := score[got.Item]
			if !ok {
				t.Errorf("i8 user %d: served item %d, which offline excludes as rated", u, got.Item)
				continue
			}
			// x̃·ỹ − x·y = x̃·(ỹ−y) + (x̃−x)·y, and ‖y‖₁ ≤ ‖ỹ‖₁ + k·errY.
			bound := errY*norm1(st.X, u) + st.QX.MaxAbsErr*(norm1(st.Y, got.Item)+float64(st.K)*errY)
			if diff := math.Abs(got.Score - want); diff > bound+0.0005 {
				t.Errorf("i8 user %d item %d: served %.5f, offline %.3f: off by %.5f, bound %.5f",
					u, got.Item, got.Score, want, diff, bound)
			}
		}
	}
}

// refuseFlipped copies the model file with one bit flipped inside X and
// requires alsrecommend, alseval and alsserve -model each to exit non-zero
// with an error that names the checksum.
func refuseFlipped(t *testing.T, model, ratings, alsrecommend, alsserve string) {
	t.Helper()
	raw, err := os.ReadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	raw[300] ^= 0x04 // past the 78-byte header and the variant label: inside X
	flipped := filepath.Join(filepath.Dir(model), "flipped.bin")
	if err := os.WriteFile(flipped, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	for _, run := range [][]string{
		{alsrecommend, "-model", flipped, "-ratings", ratings, "-one-based=false", "-users", "0"},
		{e2e.Build(t, "alseval"), "-model", flipped, "-test", ratings, "-one-based=false"},
		{alsserve, "-model", flipped, "-addr", "127.0.0.1:0"},
	} {
		p := e2e.Start(t, run[0], run[1:]...)
		if code := p.Wait(); code == 0 || !strings.Contains(p.Output(), "checksum mismatch") {
			t.Errorf("%s on a flipped model file: exit %d, output:\n%s", filepath.Base(run[0]), code, p.Output())
		}
	}
}

var (
	recUser = regexp.MustCompile(`^user (\d+) `)
	recItem = regexp.MustCompile(`^\s+\d+\. item (\d+)\s+score (\S+)$`)
)

// parseRecommend reads alsrecommend's output: user → its ranked items, with
// scores as printed (three decimals).
func parseRecommend(t *testing.T, out string) map[int][]serve.RecItem {
	t.Helper()
	recs := map[int][]serve.RecItem{}
	user := -1
	for _, line := range strings.Split(out, "\n") {
		if m := recUser.FindStringSubmatch(line); m != nil {
			user, _ = strconv.Atoi(m[1])
		} else if m := recItem.FindStringSubmatch(line); m != nil && user >= 0 {
			item, _ := strconv.Atoi(m[1])
			score, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				t.Fatalf("alsrecommend line %q: %v", line, err)
			}
			recs[user] = append(recs[user], serve.RecItem{Item: item, Score: score})
		}
	}
	if len(recs) < 20 {
		t.Fatalf("alsrecommend answered for %d users, want at least 20:\n%s", len(recs), out)
	}
	return recs
}

func norm1(d *linalg.Dense, row int) float64 {
	var s float64
	for _, v := range d.Row(row) {
		s += math.Abs(float64(v))
	}
	return s
}

// ratedBytes holds the rated-set part of als_snapshot_bytes, on a server
// and on shard 1 of 2 serving from the same -ratings file, to the coded
// set's own byte count: the file's set coded, and coded then cut to the
// shard's items.
func ratedBytes(t *testing.T, ratings, base, shard string, items int) {
	t.Helper()
	coo, _, err := dataset.ReadRatings(ratings, false)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sparse.NewCSR(coo)
	if err != nil {
		t.Fatal(err)
	}
	coded := sparse.NewGaps(r)
	lo, hi := sparse.Range(items, 1, 2)
	const part = `als_snapshot_bytes{part="rated"}`
	for _, c := range []struct {
		base string
		want int
	}{{base, coded.Bytes()}, {shard, coded.ColRange(lo, hi).Bytes()}} {
		if got := e2e.Scrape(t, c.base).Sum(part); got != float64(c.want) || got == 0 {
			t.Errorf("%s: %s %g, the codec counts %d", c.base, part, got, c.want)
		}
	}
}
