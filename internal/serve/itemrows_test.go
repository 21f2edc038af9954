package serve

import (
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/quant"
	"repro/internal/rtrace"
	"repro/internal/sparse"
)

// checkpointModel is the model a quantized checkpoint of random factors
// decodes to: its float32 Y is exactly the decode of QY, as
// checkpoint.Load returns it.
func checkpointModel(t testing.TB, rng *rand.Rand, prec quant.Precision, users, items, k int) *core.Model {
	t.Helper()
	qy, err := quant.EncodeDense(randomDense(rng, items, k), prec)
	if err != nil {
		t.Fatal(err)
	}
	return &core.Model{K: k, X: randomDense(rng, users, k), Y: qy.Decode(), QY: qy,
		Meta: core.Meta{Lambda: 0.1}}
}

// sameBits reports whether a and b hold the same float32 bit patterns.
func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// foldInCases are rated-item lists over a catalog of items: one item, the
// first and last, a scatter, and a long run.
func foldInCases(rng *rand.Rand, items int) [][]int32 {
	long := make([]int32, 0, 40)
	for _, i := range rng.Perm(items)[:40] {
		long = append(long, int32(i))
	}
	return [][]int32{{3}, {0, int32(items - 1)}, {int32(items / 2), 7, int32(items / 3), 1}, long}
}

// TestQuantizedSnapshotKeepsNoFloatY: an i8 or f16 checkpoint installed by
// Watcher.Poll or by /admin/swap serves from its quantized rows alone —
// after a collection the process holds less than the float32 Y alone
// would — and still answers a fold-in.
func TestQuantizedSnapshotKeepsNoFloatY(t *testing.T) {
	const users, items, k = 4, 30000, 32
	const yBytes = 4 * items * k
	for _, prec := range []quant.Precision{quant.I8, quant.F16} {
		dir := t.TempDir()
		func() { // the source model is garbage once the file is written
			m := checkpointModel(t, rand.New(rand.NewSource(53)), prec, users, items, k)
			st := &checkpoint.State{Iteration: 1, K: k, Lambda: 0.1, X: m.X, Y: m.Y, QY: m.QY, Precision: prec}
			if _, err := checkpoint.Save(checkpoint.OS, dir, st); err != nil {
				t.Fatal(err)
			}
		}()
		for _, via := range []string{"watcher", "admin"} {
			t.Run(prec.String()+"/"+via, func(t *testing.T) {
				s, ts := newTestServer(t, Config{})
				s.SetPrecision(prec)
				if via == "watcher" {
					if swapped, err := NewWatcher(s, WatcherConfig{Dir: dir}).Poll(); !swapped || err != nil {
						t.Fatalf("poll = (%v, %v)", swapped, err)
					}
				} else if code := postJSON(t, ts.URL+"/admin/swap", swapRequest{Model: filepath.Join(dir, checkpoint.FileName(1))}, nil); code != 200 {
					t.Fatalf("swap status %d", code)
				}
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				sn := s.Current()
				if sn.Model.Y != nil || sn.Items != items || sn.QY == nil {
					t.Fatalf("snapshot holds Y=%v, %d items, QY=%v", sn.Model.Y != nil, sn.Items, sn.QY != nil)
				}
				t.Logf("live heap %d B, the float32 Y %d B", ms.HeapAlloc, yBytes)
				if ms.HeapAlloc >= yBytes {
					t.Errorf("live heap %d B after the install, the float32 Y alone is %d B", ms.HeapAlloc, yBytes)
				}
				var resp FoldInResponse
				req := FoldInRequest{Items: []int32{1, items - 1}, Ratings: []float32{4, 2}, N: 3}
				if code := postJSON(t, ts.URL+"/v1/foldin", req, &resp); code != 200 || len(resp.Items) != 3 {
					t.Fatalf("fold-in HTTP %d, %d items", code, len(resp.Items))
				}
			})
		}
	}
}

// TestFoldInFromQuantizedRows: a snapshot without Y folds a user in bit
// for bit as core.Model.FoldInUser does on the decoded model, and each of
// 1, 2 or 3 shards without Y returns the partial terms GramRHSFused makes
// over its slice of the decoded rows — so the fleet's summed solve is the
// one a float32 Y gave.
func TestFoldInFromQuantizedRows(t *testing.T) {
	const users, items, k = 3, 500, 8
	for _, prec := range []quant.Precision{quant.I8, quant.F16} {
		rng := rand.New(rand.NewSource(59))
		m := checkpointModel(t, rng, prec, users, items, k)
		decoded := &core.Model{K: k, X: m.X, Y: m.QY.Decode()}
		var st Store
		st.SetPrecision(prec)
		sn := st.Swap(m, nil, "q")
		if sn.Model.Y != nil {
			t.Fatalf("%v: the snapshot kept a Y that is its encoding's decode", prec)
		}
		cases := foldInCases(rng, items)
		for _, its := range cases {
			ratings := make([]float32, len(its))
			for z := range ratings {
				ratings[z] = float32(rng.Intn(9)+1) / 2
			}
			want, err := decoded.FoldInUser(its, ratings, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sn.foldIn(its, ratings, 0.1)
			if err != nil || !sameBits(got, want) {
				t.Fatalf("%v items %v: fold-in %v (%v), want %v", prec, its, got, err, want)
			}

			for _, shards := range []int{1, 2, 3} {
				pl := linalg.PackedLen(k)
				sum, wantSum := make([]float32, pl+k), make([]float32, pl+k)
				for i := range shards {
					rep, err := NewReplica(New(Config{}), ReplicaConfig{Index: i, Count: shards})
					if err != nil {
						t.Fatal(err)
					}
					rep.srv.SetPrecision(prec)
					shard := rep.Swap(m, nil, "q")
					if shard.Model.Y != nil {
						t.Fatalf("%v shard %d/%d kept its Y", prec, i, shards)
					}
					var hs hopScratch
					local := hs.partials(shard, its, ratings)
					// What a shard holding its float32 rows computed.
					lo, hi := sparse.Range(items, i, shards)
					var cols []int32
					var vals []float32
					for z, g := range its {
						if int(g) >= lo && int(g) < hi {
							cols, vals = append(cols, g-int32(lo)), append(vals, ratings[z])
						}
					}
					ref := make([]float32, pl+k)
					linalg.GramRHSFused(decoded.Y.Data[lo*k:hi*k], k, cols, vals, ref[:pl], ref[pl:])
					if local != len(cols) || !sameBits(hs.terms, ref) {
						t.Fatalf("%v items %v shard %d/%d: %d local terms %v, want %d %v", prec, its, i, shards, local, hs.terms, len(cols), ref)
					}
					for z := range sum {
						sum[z] += hs.terms[z]
						wantSum[z] += ref[z]
					}
				}
				if shards == 1 {
					x, err := core.SolveFoldIn(sum[:pl], sum[pl:], k, 0.1)
					if err != nil || !sameBits(x, want) {
						t.Fatalf("%v items %v: one shard's solve %v (%v), want %v", prec, its, x, err, want)
					}
				} else if !sameBits(sum, wantSum) {
					t.Fatalf("%v items %v: %d shards sum to %v, want %v", prec, its, shards, sum, wantSum)
				}
			}
		}
	}
}

// TestWatcherSwapSpans: a sampled watcher install is one swap trace —
// read, decode, rank and drop_check under the swap root for a checkpoint
// whose encoding the swap keeps alone, and encode, rank and no drop_check
// for a float32 checkpoint served quantized.
func TestWatcherSwapSpans(t *testing.T) {
	for _, ck := range []struct {
		prec quant.Precision
		want []string
	}{
		{quant.I8, []string{"read", "decode", "rank", "drop_check"}},
		{quant.F32, []string{"read", "decode", "encode", "rank"}},
	} {
		tr := rtrace.New(rtrace.Config{Sample: 1, Process: "test"})
		s := New(Config{Tracer: tr})
		s.SetPrecision(quant.I8)
		fsys := checkpoint.NewMemFS()
		m := checkpointModel(t, rand.New(rand.NewSource(61)), quant.I8, 3, 40, 4)
		st := &checkpoint.State{Iteration: 2, K: 4, Lambda: 0.1, X: m.X, Y: m.Y, QY: m.QY, Precision: ck.prec}
		if _, err := checkpoint.Save(fsys, "ckpts", st); err != nil {
			t.Fatal(err)
		}
		if swapped, err := NewWatcher(s, WatcherConfig{Dir: "ckpts", FS: fsys}).Poll(); !swapped || err != nil {
			t.Fatalf("poll = (%v, %v)", swapped, err)
		}
		var root rtrace.SpanRecord
		spans := tr.Snapshot()
		for _, sp := range spans {
			if sp.Name == "swap" {
				root = sp
			}
		}
		var children []string
		dropped := ""
		for _, sp := range spans {
			if root.ID != 0 && sp.Parent == root.ID {
				children = append(children, sp.Name)
			}
			for _, a := range sp.Attrs {
				if sp.Name == "drop_check" && a.Key == "dropped" {
					dropped = a.Value
				}
			}
		}
		slices.Sort(children)
		want := slices.Clone(ck.want)
		slices.Sort(want)
		if !slices.Equal(children, want) {
			t.Errorf("%v checkpoint: swap children %v, want %v", ck.prec, children, want)
		}
		if ck.prec == quant.I8 && dropped != "true" {
			t.Errorf("%v checkpoint: drop_check dropped=%q, want true", ck.prec, dropped)
		}
	}
}

// TestServingRatedSetKeepsNoValues: every way a rated set reaches a
// snapshot — Server.Swap, Replica.Swap, a watcher with and without a
// Transform — installs its pattern alone, and it excludes what the full
// set excludes.
func TestServingRatedSetKeepsNoValues(t *testing.T) {
	const users, items, k = 4, 6, 3
	m := linearModel(1, users, items, k)
	rated := singleRating(users, items, 5)
	fsys := checkpoint.NewMemFS()
	saveCheckpoint(t, fsys, "ckpts", 1, 1, users, items, k)
	install := map[string]func(*Server) *Snapshot{
		"Server.Swap": func(s *Server) *Snapshot { return s.Swap(m, rated, "v") },
		"Replica.Swap": func(s *Server) *Snapshot {
			rep, _ := NewReplica(s, ReplicaConfig{Index: 1, Count: 2})
			return rep.Swap(m, rated, "v")
		},
		"Watcher": func(s *Server) *Snapshot {
			NewWatcher(s, WatcherConfig{Dir: "ckpts", FS: fsys, Rated: rated}).Poll()
			return s.Current()
		},
		"Watcher+Transform": func(s *Server) *Snapshot {
			rep, _ := NewReplica(s, ReplicaConfig{Index: 1, Count: 2})
			NewWatcher(s, WatcherConfig{Dir: "ckpts", FS: fsys, Rated: rated, Transform: rep.Transform}).Poll()
			return s.Current()
		},
	}
	for name, swap := range install {
		s := New(Config{})
		sn := swap(s)
		if sn == nil || sn.Rated == nil || sn.Rated.Val != nil {
			t.Fatalf("%s: the snapshot's rated set keeps values (or is missing): %+v", name, sn)
		}
		ex := RatedExcluder(sn.Rated, 0)
		if local := 5 - sn.ItemOffset; ex == nil || !ex(local) || ex(local-1) {
			t.Errorf("%s: user 0's exclusion over local item %d is wrong", name, local)
		}
	}
	if rated.Val == nil {
		t.Error("installing a rated set dropped the caller's values")
	}
}
