package serve

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/host"
	"repro/internal/quant"
)

// TestRatedSetHeldOnce: a rated set is coded once. Two watched swaps — on
// a Server, and on a Replica, which cuts the set at its first install —
// share one coded set: the watcher's own (Rated), or the one a swap of a
// model file installed before the watcher started (RatedFrom), as
// alsserve -model -watch -ratings does. The plain set's ColIdx is collected
// while the watcher, the replica and every snapshot live.
func TestRatedSetHeldOnce(t *testing.T) {
	const users, items, k = 4, 6, 3
	for _, c := range []struct{ shard, model bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		t.Run(fmt.Sprintf("replica=%v/model=%v", c.shard, c.model), func(t *testing.T) {
			s := New(Config{})
			fsys := checkpoint.NewMemFS()
			cfg := WatcherConfig{Dir: "ckpts", FS: fsys}
			var rep *Replica
			if c.shard {
				rep, _ = NewReplica(s, ReplicaConfig{Index: 1, Count: 2})
				cfg.Transform = rep.Transform
			}
			idxGone := make(chan struct{})
			rated := singleRating(users, items, 5)
			finalized(&rated.ColIdx[0], idxGone)
			var sns []*Snapshot
			if c.model {
				m := randomModel(rand.New(rand.NewSource(1)), users, items, k)
				if rep != nil {
					rep.Swap(m, rated, "model")
				} else {
					s.Swap(m, rated, "model")
				}
				cfg.RatedFrom = s.Current()
				sns = append(sns, cfg.RatedFrom)
			} else {
				cfg.Rated = rated
			}
			rated = nil
			w := NewWatcher(s, cfg)
			cfg = WatcherConfig{}
			for iter := 1; iter <= 2; iter++ {
				saveCheckpoint(t, fsys, "ckpts", iter, float32(iter), users, items, k)
				if swapped, err := w.Poll(); !swapped || err != nil {
					t.Fatalf("poll %d = (%v, %v)", iter, swapped, err)
				}
				sns = append(sns, s.Current())
			}
			last := sns[len(sns)-1]
			for _, sn := range sns {
				if sn.Rated == nil || sn.Rated != sns[0].Rated {
					t.Fatalf("snapshot %s holds rated set %p, %s holds %p: want one shared set", sn.Version, sn.Rated, sns[0].Version, sns[0].Rated)
				}
			}
			if sns[0] == last {
				t.Fatal("the watcher installed nothing new")
			}
			if !collected(idxGone) {
				t.Error("the plain rated set's ColIdx is still reachable")
			}
			ex := RatedExcluder(last.Rated, 0)
			if local := 5 - last.ItemOffset; ex == nil || !ex(local) || ex(local-1) {
				t.Errorf("user 0's exclusion over local item %d is wrong", local)
			}
			runtime.KeepAlive(w)
			runtime.KeepAlive(rep)
		})
	}
}

// TestRecommendAllocs pins what an uncached recommend allocates with a
// rated set at each precision: the scan's own (TestScoreTopNAllocs), and
// nothing for the exclusion — the predicate stays on the request's stack
// and a coded set's lookups decode in place, so the counts are those of
// the plain set it replaced.
func TestRecommendAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	m := randomModel(rng, 8, 5000, 16)
	rated := randomRated(rng, 8, 5000, 300)
	ctx := context.Background()
	for _, c := range []struct {
		prec quant.Precision
		want float64
	}{{quant.F32, 1}, {quant.I8, 2}} {
		t.Run(c.prec.String(), func(t *testing.T) {
			s := New(Config{CacheSize: -1})
			s.SetPrecision(c.prec)
			sn := s.Swap(m, rated, "v")
			allocs := testing.AllocsPerRun(50, func() {
				if out, _, err := s.recommend(ctx, sn, 3, 10); err != nil || len(out) != 10 {
					t.Fatalf("%d items, %v", len(out), err)
				}
			})
			if allocs != c.want {
				t.Errorf("recommend allocates %v times per request, want %v", allocs, c.want)
			}
		})
	}
}

// BenchmarkRatedExcluder replays the rated-set lookups of the benchmark's
// catalog workload (bench/workloads.go: its preset, seed 1, 10 % held out,
// and its training and i8 serving configuration). Each request is a user
// drawn as one of its two load clients draws them (a Zipf sampler seeded 1
// and 1+7919, so client 0 favours heavy raters), and its lookups are the
// ones that user's recommend made: the candidates that passed the heap
// threshold of a real scan, recorded once. csr is the plain pattern a
// snapshot held before, gaps the coded set it holds now; one op is one
// request. It logs both sets' sizes and each client's lookups a request
// (-v).
func BenchmarkRatedExcluder(b *testing.B) {
	p := dataset.Preset{Name: "CATALOG", Users: 5000, Items: 50000, NNZ: 800000,
		MinVal: 0.5, MaxVal: 5, UserSkew: 0.82, ItemSkew: 0.78}
	train, _, err := dataset.Split(p.Generate(1).Matrix, 0.1, 2)
	if err != nil {
		b.Fatal(err)
	}
	model, _, err := core.Train(train, core.Config{K: 64, Lambda: 0.1, Iterations: 4, Seed: 1,
		UseRecommended: true, Workers: 2, Implicit: true, Alpha: 5, Solver: host.SolverCG, CGIters: 3})
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{CacheSize: -1})
	s.SetPrecision(quant.I8)
	sn := s.Swap(model, train.R, "")
	csr, coded := train.R, sn.Rated
	b.Logf("%d entries: pattern %d B, coded %d B (%.2f B an entry)", len(csr.ColIdx),
		8*len(csr.RowPtr)+4*len(csr.ColIdx), coded.Bytes(), float64(coded.Bytes())/float64(len(csr.ColIdx)))
	type request struct {
		u      int
		probes []int
	}
	for _, seed := range []int64{1, 1 + 7919} {
		users := dataset.NewZipfSampler(p.Users, 0.85, seed)
		reqs := make([]request, 512)
		calls := 0
		for j := range reqs {
			r := request{u: users.Draw()}
			if ex := RatedExcluder(coded, r.u); ex != nil {
				record := func(i int) bool { r.probes = append(r.probes, i); return ex(i) }
				if _, err := s.ScoreTopN(context.Background(), sn, sn.Model.X.Row(r.u), record, 10); err != nil {
					b.Fatal(err)
				}
			}
			reqs[j] = r
			calls += len(r.probes)
		}
		b.Logf("client seeded %d: %.1f lookups a request", seed, float64(calls)/float64(len(reqs)))
		for _, set := range []string{"csr", "gaps"} {
			b.Run(fmt.Sprintf("client-seed%d/%s", seed, set), func(b *testing.B) {
				hits := 0
				for n := 0; n < b.N; n++ {
					r := reqs[n%len(reqs)]
					// As a request builds it, at the parent and now.
					ex := gapsExcluder(coded, r.u)
					if set == "csr" {
						ex = sortedExcluder(csr.RowCols(r.u))
					}
					for _, i := range r.probes {
						if ex(i) {
							hits++
						}
					}
				}
				b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
			})
		}
	}
}
