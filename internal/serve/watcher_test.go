package serve

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/linalg"
)

// saveCheckpoint writes a valid checkpoint whose model scores (u, i) as
// scale*i — the same closed form as linearModel — so responses can be
// attributed to the checkpoint they came from.
func saveCheckpoint(t *testing.T, fsys checkpoint.FS, dir string, iter int, scale float32, users, items, k int) {
	t.Helper()
	x := linalg.NewDense(users, k)
	for u := 0; u < users; u++ {
		x.Set(u, 0, scale)
	}
	y := linalg.NewDense(items, k)
	for i := 0; i < items; i++ {
		y.Set(i, 0, float32(i))
	}
	st := &checkpoint.State{
		Iteration: iter, K: k, Lambda: 0.1, Seed: 1,
		Variant: "tb", X: x, Y: y,
	}
	if _, err := checkpoint.Save(fsys, dir, st); err != nil {
		t.Fatal(err)
	}
}

func TestWatcherSwapsNewestCheckpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	fsys := checkpoint.NewMemFS()
	w := NewWatcher(s, WatcherConfig{Dir: "ckpts", FS: fsys})

	// No directory yet: keep waiting, don't error.
	if swapped, err := w.Poll(); swapped || err != nil {
		t.Fatalf("empty poll = (%v, %v)", swapped, err)
	}

	saveCheckpoint(t, fsys, "ckpts", 1, 1, 4, 6, 3)
	saveCheckpoint(t, fsys, "ckpts", 2, 2, 4, 6, 3)
	if swapped, err := w.Poll(); !swapped || err != nil {
		t.Fatalf("poll = (%v, %v), want swap", swapped, err)
	}
	sn := s.Current()
	if sn == nil || sn.Version != "ckpt-2" {
		t.Fatalf("installed %+v, want version ckpt-2", sn)
	}

	// Nothing new: no swap, and the stale checkpoint 1 is never revisited.
	if swapped, _ := w.Poll(); swapped {
		t.Fatal("re-poll swapped without a new checkpoint")
	}

	saveCheckpoint(t, fsys, "ckpts", 3, 3, 4, 6, 3)
	if swapped, _ := w.Poll(); !swapped {
		t.Fatal("new checkpoint not picked up")
	}
	if v := s.Current().Version; v != "ckpt-3" {
		t.Fatalf("version = %s, want ckpt-3", v)
	}
}

// TestWatcherAppliesRatedOnlyOnDimensionMatch: a rated set is applied to
// a checkpoint only when it fits it — its users, and on a shard the item
// slice it was cut to at the first install — and RatedSkipped says why
// when it is not.
func TestWatcherAppliesRatedOnlyOnDimensionMatch(t *testing.T) {
	type ckpt struct{ users, items int }
	for _, c := range []struct {
		name   string
		shard  bool // replica 1 of 2 rather than the whole catalog
		second ckpt
		top    int // user 0's top item from the second checkpoint
		why    string
	}{
		// A checkpoint with a different user count must not inherit the
		// stale rated matrix (it would exclude the wrong rows).
		{"users", false, ckpt{5, 6}, 5, "ratings cover 4 users, model has 5"},
		// Nor may a shard's cut apply to another slice of the catalog.
		{"slice", true, ckpt{4, 8}, 7, "ratings were cut to items [3,6), model slice is [4,8)"},
		{"same slice", true, ckpt{4, 6}, 4, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{})
			fsys := checkpoint.NewMemFS()
			cfg := WatcherConfig{Dir: "ckpts", FS: fsys,
				Rated: singleRating(4, 6, 5)} // user 0 rated item 5, the top scorer
			if c.shard {
				rep, err := NewReplica(s, ReplicaConfig{Index: 1, Count: 2})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Transform = rep.Transform
			}
			w := NewWatcher(s, cfg)
			top := func(iter int, want int, why string) {
				t.Helper()
				if swapped, err := w.Poll(); !swapped || err != nil {
					t.Fatalf("poll %d = (%v, %v)", iter, swapped, err)
				}
				var resp RecommendResponse
				getJSON(t, ts.URL+"/v1/recommend?user=0&n=1", &resp)
				if len(resp.Items) != 1 || resp.Items[0].Item != want {
					t.Fatalf("checkpoint %d: top = %+v, want item %d", iter, resp.Items, want)
				}
				if got := w.RatedSkipped(); got != why {
					t.Fatalf("checkpoint %d: RatedSkipped() = %q, want %q", iter, got, why)
				}
			}
			saveCheckpoint(t, fsys, "ckpts", 1, 1, 4, 6, 3)
			top(1, 4, "") // item 5 excluded
			saveCheckpoint(t, fsys, "ckpts", 2, 2, c.second.users, c.second.items, 3)
			top(2, c.top, c.why)
		})
	}
}

// TestShardWatcherKeepsNoFullCatalog: once a sharded watcher has installed
// its first checkpoint, neither the full rated set it was configured with
// nor that checkpoint's full item factors are reachable — both are
// collected — while the installed slice still excludes what its users
// rated.
func TestShardWatcherKeepsNoFullCatalog(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	fsys := checkpoint.NewMemFS()
	saveCheckpoint(t, fsys, "ckpts", 1, 1, 4, 6, 3)
	rep, err := NewReplica(s, ReplicaConfig{Index: 1, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	ratedGone, yGone := make(chan struct{}), make(chan struct{})
	w := NewWatcher(s, WatcherConfig{Dir: "ckpts", FS: fsys,
		Rated: finalized(singleRating(4, 6, 5), ratedGone),
		Transform: func(m *core.Model) (*core.Model, int, int) {
			finalized(&m.Y.Data[0], yGone)
			return rep.Transform(m)
		}})
	if swapped, err := w.Poll(); !swapped || err != nil {
		t.Fatalf("poll = (%v, %v)", swapped, err)
	}
	for what, gone := range map[string]chan struct{}{"the full rated set": ratedGone, "the full Y": yGone} {
		if !collected(gone) {
			t.Errorf("%s is still reachable after the first install", what)
		}
	}
	var resp RecommendResponse
	getJSON(t, ts.URL+"/v1/recommend?user=0&n=1", &resp)
	if len(resp.Items) != 1 || resp.Items[0].Item != 4 {
		t.Fatalf("top = %+v, want item 4 (item 5 rated)", resp.Items)
	}
}

// finalized sets a finalizer on p that closes gone, and returns p.
func finalized[T any](p *T, gone chan struct{}) *T {
	runtime.SetFinalizer(p, func(*T) { close(gone) })
	return p
}

// collected runs collections until gone is closed, or gives up after a
// second.
func collected(gone chan struct{}) bool {
	for range 100 {
		runtime.GC()
		select {
		case <-gone:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// TestWatcherRejectsCorruptCheckpointUnderLoad is the crash-safety story
// end to end: a training run dies mid-checkpoint leaving a torn file, the
// serving fleet notices the new file while under live request load, fails
// to load it, counts the rejection — and never stops answering from the
// snapshot it already has.
func TestWatcherRejectsCorruptCheckpointUnderLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{Queue: 256})
	fsys := checkpoint.NewMemFS()
	var rejected []string
	w := NewWatcher(s, WatcherConfig{Dir: "ckpts", FS: fsys,
		OnReject: func(path string, err error) {
			rejected = append(rejected, path)
			if err == nil {
				t.Error("OnReject called with nil error")
			}
		}})

	saveCheckpoint(t, fsys, "ckpts", 1, 1, 4, 6, 3)
	if swapped, _ := w.Poll(); !swapped {
		t.Fatal("initial checkpoint not installed")
	}

	// Live load against /v1/recommend for the whole scenario. Every
	// response must come from an installed snapshot and carry its closed
	// form — a torn swap would surface as a non-ckpt version or a garbage
	// score.
	stop := make(chan struct{})
	errs := make(chan error, 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/recommend?user=0&n=1")
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
					return
				}
				if !strings.Contains(string(body), `"version":"ckpt-`) {
					errs <- fmt.Errorf("response from unknown snapshot: %s", body)
					return
				}
			}
		}()
	}

	// A torn checkpoint 2 appears (truncated mid-payload), then a
	// bit-flipped checkpoint 3: both must be rejected while serving
	// continues. The watcher polls repeatedly, as Run would.
	valid, ok := fsys.ReadFile(filepath.Join("ckpts", checkpoint.FileName(1)))
	if !ok {
		t.Fatal("checkpoint 1 missing")
	}
	fsys.WriteFile(filepath.Join("ckpts", checkpoint.FileName(2)), valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-5] ^= 0x80
	fsys.WriteFile(filepath.Join("ckpts", checkpoint.FileName(3)), flipped)
	for i := 0; i < 3; i++ {
		if swapped, err := w.Poll(); swapped || err != nil {
			t.Fatalf("poll %d with only corrupt candidates = (%v, %v)", i, swapped, err)
		}
	}

	// A good checkpoint 4 ends the outage.
	saveCheckpoint(t, fsys, "ckpts", 4, 4, 4, 6, 3)
	if swapped, _ := w.Poll(); !swapped {
		t.Fatal("recovery checkpoint not installed")
	}

	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("request failed during corrupt swap: %v", err)
	}

	if s.Current().Version != "ckpt-4" {
		t.Fatalf("final version = %s", s.Current().Version)
	}
	// Each corrupt file is rejected exactly once (no retry churn), and the
	// rejection counter is exported for alerting.
	if len(rejected) != 2 {
		t.Fatalf("rejected %v, want the two corrupt files once each", rejected)
	}
	if n := s.Telemetry().SwapRejectedCount(); n != 2 {
		t.Fatalf("swap_rejected counter = %d, want 2", n)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "als_swap_rejected_total 2") {
		t.Fatalf("metrics missing rejection count:\n%s", body)
	}
}

// TestWatcherFallsBackToOlderValidCandidate: when the newest checkpoint is
// torn, the next-newest valid one still gets installed in the same poll.
func TestWatcherFallsBackToOlderValidCandidate(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	fsys := checkpoint.NewMemFS()
	w := NewWatcher(s, WatcherConfig{Dir: "ckpts", FS: fsys})

	saveCheckpoint(t, fsys, "ckpts", 5, 1, 4, 6, 3)
	fsys.WriteFile(filepath.Join("ckpts", checkpoint.FileName(6)), []byte("torn"))
	if swapped, err := w.Poll(); !swapped || err != nil {
		t.Fatalf("poll = (%v, %v)", swapped, err)
	}
	if v := s.Current().Version; v != "ckpt-5" {
		t.Fatalf("version = %s, want fallback ckpt-5", v)
	}
	if n := s.Telemetry().SwapRejectedCount(); n != 1 {
		t.Fatalf("swap_rejected = %d, want 1", n)
	}
}

// TestWatcherRejectsHugeTornCheckpoint: a torn checkpoint whose damaged
// header declares a 2²² × 1024 factor (16 GiB) over the 80 bytes it holds
// is rejected — counted in als_swap_rejected_total while the previous
// snapshot keeps serving — after the poll allocates no more than the
// decoder's fixed buffer, the codec's 64 KiB scratch, and 64 KiB more. The
// directory is a real one: an os.File tells the decoder its size.
func TestWatcherRejectsHugeTornCheckpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	dir := t.TempDir()
	w := NewWatcher(s, WatcherConfig{Dir: dir, FS: checkpoint.OS})
	saveCheckpoint(t, checkpoint.OS, dir, 5, 1, 4, 6, 3)
	if swapped, err := w.Poll(); !swapped || err != nil {
		t.Fatalf("poll = (%v, %v)", swapped, err)
	}

	good, err := os.ReadFile(filepath.Join(dir, checkpoint.FileName(5)))
	if err != nil {
		t.Fatal(err)
	}
	// The header, the fixed fields, the variant "tb" and the history
	// length; then the torn end.
	torn := good[:80]
	binary.LittleEndian.PutUint64(torn[16:], 1024)  // k
	binary.LittleEndian.PutUint64(torn[24:], 1<<22) // users
	if err := os.WriteFile(filepath.Join(dir, checkpoint.FileName(99)), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	var swapped bool
	if n := allocated(func() { swapped, err = w.Poll() }); n > 64<<10+64<<10 {
		t.Errorf("the poll allocated %d bytes", n)
	}
	if swapped || err != nil {
		t.Fatalf("poll = (%v, %v), want no swap", swapped, err)
	}
	if n := s.Telemetry().SwapRejectedCount(); n != 1 {
		t.Errorf("swap_rejected = %d, want 1", n)
	}
	if v := s.Current().Version; v != "ckpt-5" {
		t.Errorf("version = %s, want ckpt-5 still serving", v)
	}
}

// TestWatcherRunWithFakeClock drives the polling loop with a fake clock:
// no sleeps, fully deterministic.
func TestWatcherRunWithFakeClock(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	fsys := checkpoint.NewMemFS()
	clk := checkpoint.NewFakeClock(time.Unix(0, 0))
	swaps := make(chan *Snapshot, 1)
	w := NewWatcher(s, WatcherConfig{
		Dir: "ckpts", FS: fsys, Clock: clk, Interval: time.Second,
		OnSwap: func(sn *Snapshot) { swaps <- sn },
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { w.Run(ctx); close(done) }()

	waitWaiters := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for clk.Waiters() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("watcher never armed its poll timer")
			}
			time.Sleep(time.Millisecond)
		}
	}

	// First tick: empty directory, no swap.
	waitWaiters()
	clk.Advance(time.Second)

	// Second tick: a checkpoint has appeared.
	saveCheckpoint(t, fsys, "ckpts", 1, 1, 4, 6, 3)
	waitWaiters()
	clk.Advance(time.Second)
	select {
	case sn := <-swaps:
		if sn.Version != "ckpt-1" {
			t.Fatalf("swapped %s, want ckpt-1", sn.Version)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("poll tick produced no swap")
	}

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not exit on context cancel")
	}
}
