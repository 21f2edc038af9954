package shard

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/serve"
)

// TestWatcherShardSync exercises the fleet's model-distribution mechanism:
// every replica follows the same checkpoint directory through a watcher
// whose Transform hook slices each checkpoint down to the replica's item
// range, so one training run's -checkpoint-dir drives the whole fleet and
// each member hot-swaps only its slice.
func TestWatcherShardSync(t *testing.T) {
	const users, items, k, shards = 5, 23, 3, 3
	fsys := checkpoint.NewMemFS()
	const dir = "ckpts"

	save := func(iter int, m *core.Model) {
		st := &checkpoint.State{
			Iteration: iter, K: m.K, Lambda: 0.5, Seed: 1, Variant: "tb",
			X: m.X, Y: m.Y,
		}
		if _, err := checkpoint.Save(fsys, dir, st); err != nil {
			t.Fatal(err)
		}
	}
	m1 := tieModel(users, items, k)
	save(1, m1)

	var servers []*serve.Server
	var watchers []*serve.Watcher
	for i := 0; i < shards; i++ {
		srv := serve.New(serve.Config{})
		t.Cleanup(srv.Close)
		rep, err := serve.NewReplica(srv, serve.ReplicaConfig{Index: i, Count: shards})
		if err != nil {
			t.Fatal(err)
		}
		w := serve.NewWatcher(srv, serve.WatcherConfig{
			Dir: dir, FS: fsys, Transform: rep.Transform,
		})
		if swapped, err := w.Poll(); err != nil || !swapped {
			t.Fatalf("shard %d: initial poll swapped=%v err=%v", i, swapped, err)
		}
		servers = append(servers, srv)
		watchers = append(watchers, w)
	}

	for i, srv := range servers {
		sn := srv.Current()
		lo, hi := Range(items, i, shards)
		if sn.ItemOffset != lo || sn.ItemTotal != items || sn.Model.Y.Rows != hi-lo {
			t.Fatalf("shard %d installed offset=%d total=%d rows=%d, want offset=%d total=%d rows=%d",
				i, sn.ItemOffset, sn.ItemTotal, sn.Model.Y.Rows, lo, items, hi-lo)
		}
		if sn.Version != "ckpt-1" {
			t.Fatalf("shard %d version = %q, want ckpt-1", i, sn.Version)
		}
		// The slice is a view of the same checkpoint: row lo+1 of the full
		// Y must be local row 1.
		if hi-lo > 1 && sn.Model.Y.At(1, 0) != m1.Y.At(lo+1, 0) {
			t.Fatalf("shard %d slice content mismatch at local row 1", i)
		}
	}

	// A newer checkpoint lands; every shard picks up exactly its slice of
	// the new factors on the next poll.
	m2 := tieModel(users, items, k)
	for i := 0; i < items; i++ {
		m2.Y.Set(i, 0, float32(100+i))
	}
	save(2, m2)
	for i, w := range watchers {
		if swapped, err := w.Poll(); err != nil || !swapped {
			t.Fatalf("shard %d: second poll swapped=%v err=%v", i, swapped, err)
		}
		sn := servers[i].Current()
		lo, _ := Range(items, i, shards)
		if sn.Version != "ckpt-2" {
			t.Fatalf("shard %d version = %q after new checkpoint", i, sn.Version)
		}
		if got, want := sn.Model.Y.At(0, 0), float32(100+lo); got != want {
			t.Fatalf("shard %d local row 0 = %v, want %v (global row %d of the new checkpoint)",
				i, got, want, lo)
		}
	}

	// No newer checkpoint: polls are quiescent.
	for i, w := range watchers {
		if swapped, _ := w.Poll(); swapped {
			t.Fatalf("shard %d swapped with no new checkpoint", i)
		}
	}
}
