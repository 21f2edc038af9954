package shard

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/framing"
	"repro/internal/obs"
	"repro/internal/shard/chaosnet"
	"repro/internal/sparse"
)

// sweepSpec is the shared tiny workload for the chaos tests: small enough
// that a full kill-at-every-frame sweep stays in test-suite territory, real
// enough that every frame kind and boundary occurs.
var sweepSpec = DataSpec{Preset: "YMR4", Scale: 0.02, Seed: 5, TestFrac: 0}

const (
	sweepK      = 6
	sweepIters  = 3
	sweepLambda = 0.07
)

func sweepRef(t *testing.T) *core.Model {
	t.Helper()
	mx, err := sweepSpec.Load()
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := core.Train(mx, core.Config{
		Platform: "host", K: sweepK, Lambda: sweepLambda, Iterations: sweepIters,
		Seed: sweepSpec.Seed, UseRecommended: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func sweepConfig(workers int, plan *chaosnet.Plan) TrainerConfig {
	return TrainerConfig{
		Workers: workers, K: sweepK, Lambda: sweepLambda, Iterations: sweepIters,
		Seed: sweepSpec.Seed, UseRecommended: true, Data: sweepSpec,
		NetChaos: plan,
		// Failure detection in these tests rides on connection errors, not
		// wall-clock timeouts; keep the clock-driven limits far away so a
		// slow CI machine cannot trip them.
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatTimeout:  30 * time.Second,
		RoundTimeout:      2 * time.Minute,
		SpawnTimeout:      2 * time.Minute,
	}
}

// TestKillAtEveryFrameSweep is the acceptance sweep: a 2-worker, 3-iteration
// run exchanges 7 frames up and 9 down per rank (hello + 6 shards up;
// config + 2 data frames + 6 broadcasts down). Severing the connection at
// every one of those boundaries, for both ranks — so a rank loses its rows
// of R, then of Rᵀ, in flight — must still produce factors byte-identical to
// the clean single-process run — via respawn when the budget allows it, via
// elastic downscale when it does not (safe because worker count does not
// change the bits).
func TestKillAtEveryFrameSweep(t *testing.T) {
	mx, err := sweepSpec.Load()
	if err != nil {
		t.Fatal(err)
	}
	ref := sweepRef(t)
	const workers = 2

	// Enumerate the frame space with a fault-free counting plan.
	count := chaosnet.NewPlan(1)
	if _, _, err := Train(mx, sweepConfig(workers, count)); err != nil {
		t.Fatal(err)
	}
	inFrames, outFrames := count.Frames(1, chaosnet.In), count.Frames(1, chaosnet.Out)
	wantIn := 1 + 2*sweepIters  // hello + one shard per half
	wantOut := 3 + 2*sweepIters // config, the rank's rows of R and of Rᵀ + one broadcast per half
	if inFrames != wantIn || outFrames != wantOut {
		t.Fatalf("counting run saw %d in / %d out frames, want %d / %d", inFrames, outFrames, wantIn, wantOut)
	}

	for _, mode := range []struct {
		name        string
		maxRespawns int
	}{
		{"respawn", 0},    // default budget: the severed rank is respawned
		{"downscale", -1}, // no budget: the cohort shrinks to the survivor
	} {
		for rank := 0; rank < workers; rank++ {
			for _, dir := range []chaosnet.Dir{chaosnet.In, chaosnet.Out} {
				frames := inFrames
				if dir == chaosnet.Out {
					frames = outFrames
				}
				for frame := 1; frame <= frames; frame++ {
					name := fmt.Sprintf("%s/rank%d/%s/frame%d", mode.name, rank, dir, frame)
					plan := chaosnet.NewPlan(int64(frame),
						chaosnet.Fault{Rank: rank, Dir: dir, Frame: frame, Action: chaosnet.Sever})
					cfg := sweepConfig(workers, plan)
					cfg.MaxRespawns = mode.maxRespawns
					m, info, err := Train(mx, cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if plan.Fired() != 1 {
						t.Fatalf("%s: fault did not fire", name)
					}
					if info.Failures < 1 {
						t.Errorf("%s: no failure recorded", name)
					}
					if mode.maxRespawns < 0 && info.Respawns != 0 {
						t.Errorf("%s: %d respawns in downscale mode", name, info.Respawns)
					}
					bitsEqual(t, name+" X", m.X, ref.X)
					bitsEqual(t, name+" Y", m.Y, ref.Y)
				}
			}
		}
	}
}

// TestElasticDownscaleBitIdentity pins the downscale outcome explicitly: a
// 3-worker run that loses a rank with respawning disabled finishes on 2
// workers, bit-identical to the clean run (at any worker count).
func TestElasticDownscaleBitIdentity(t *testing.T) {
	mx, err := sweepSpec.Load()
	if err != nil {
		t.Fatal(err)
	}
	ref := sweepRef(t)
	plan := chaosnet.NewPlan(3,
		chaosnet.Fault{Rank: 2, Dir: chaosnet.In, Frame: 3, Action: chaosnet.Sever})
	cfg := sweepConfig(3, plan)
	cfg.MaxRespawns = -1
	m, info, err := Train(mx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Downscales != 1 || info.FinalWorkers != 2 {
		t.Fatalf("downscales=%d finalWorkers=%d, want 1 and 2", info.Downscales, info.FinalWorkers)
	}
	bitsEqual(t, "X", m.X, ref.X)
	bitsEqual(t, "Y", m.Y, ref.Y)
}

// TestCorruptFrameTyped injects a single bit flip into a worker's shard
// frame: the CRC trailer must reject it as a typed corrupt-frame failure
// (never a silently wrong model), the rank must be respawned, and the final
// factors must still match the clean run exactly. A corrupted *broadcast*
// kills the receiving worker instead; the supervisor notices at the next
// gather and recovery still converges.
func TestCorruptFrameTyped(t *testing.T) {
	mx, err := sweepSpec.Load()
	if err != nil {
		t.Fatal(err)
	}
	ref := sweepRef(t)

	plan := chaosnet.NewPlan(11,
		chaosnet.Fault{Rank: 1, Dir: chaosnet.In, Frame: 2, Action: chaosnet.Corrupt})
	reg := obs.NewRegistry()
	cfg := sweepConfig(2, plan)
	cfg.Registry = reg
	m, info, err := Train(mx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Failures < 1 || info.Respawns < 1 {
		t.Fatalf("failures=%d respawns=%d, want >=1 each", info.Failures, info.Respawns)
	}
	bitsEqual(t, "X", m.X, ref.X)
	bitsEqual(t, "Y", m.Y, ref.Y)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if _, err := obs.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("exposition does not validate: %v", err)
	}
	for _, want := range []string{
		`als_dist_worker_failures_total{reason="corrupt"} 1`,
		`als_dist_respawns_total 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q in:\n%s", want, text)
		}
	}

	// A corrupted frame to a worker — its rows of R (frame 2), a broadcast
	// (frame 4): the worker rejects the frame and dies; the next gather
	// detects the loss and recovery still lands on the same bits.
	for _, frame := range []int{2, 4} {
		plan = chaosnet.NewPlan(12,
			chaosnet.Fault{Rank: 0, Dir: chaosnet.Out, Frame: frame, Action: chaosnet.Corrupt})
		m, info, err = Train(mx, sweepConfig(2, plan))
		if err != nil {
			t.Fatal(err)
		}
		if info.Failures < 1 {
			t.Fatalf("corruption of outbound frame %d went unnoticed", frame)
		}
		bitsEqual(t, "out X", m.X, ref.X)
		bitsEqual(t, "out Y", m.Y, ref.Y)
	}
}

// TestHungWorkerDetected stalls a worker's shard mid-flight for longer than
// the heartbeat timeout: the supervisor must classify the silence as a hang
// within seconds (not the 10-minute exchange timeout), respawn the rank, and
// finish bit-identical. A short stall, well inside the heartbeat timeout,
// must be tolerated with no failures at all.
func TestHungWorkerDetected(t *testing.T) {
	mx, err := sweepSpec.Load()
	if err != nil {
		t.Fatal(err)
	}
	ref := sweepRef(t)

	plan := chaosnet.NewPlan(21,
		chaosnet.Fault{Rank: 1, Dir: chaosnet.In, Frame: 2, Action: chaosnet.Delay, Delay: 30 * time.Second})
	reg := obs.NewRegistry()
	cfg := sweepConfig(2, plan)
	cfg.HeartbeatInterval = 20 * time.Millisecond
	cfg.HeartbeatTimeout = 250 * time.Millisecond
	cfg.Registry = reg
	begin := time.Now()
	m, info, err := Train(mx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(begin); d > 10*time.Second {
		t.Fatalf("hang detection took %v", d)
	}
	if info.Respawns < 1 {
		t.Fatalf("respawns=%d, want >=1", info.Respawns)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `als_dist_worker_failures_total{reason="hang"} 1`) {
		t.Errorf("exposition lacks the hang failure:\n%s", buf.String())
	}
	bitsEqual(t, "X", m.X, ref.X)
	bitsEqual(t, "Y", m.Y, ref.Y)

	// A stall shorter than the heartbeat timeout is just a slow network.
	plan = chaosnet.NewPlan(22,
		chaosnet.Fault{Rank: 1, Dir: chaosnet.In, Frame: 2, Action: chaosnet.Delay, Delay: 50 * time.Millisecond})
	cfg = sweepConfig(2, plan)
	cfg.HeartbeatInterval = 20 * time.Millisecond
	cfg.HeartbeatTimeout = 2 * time.Second
	m, info, err = Train(mx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Failures != 0 || info.Respawns != 0 {
		t.Fatalf("tolerable stall caused failures=%d respawns=%d", info.Failures, info.Respawns)
	}
	bitsEqual(t, "slow X", m.X, ref.X)
	bitsEqual(t, "slow Y", m.Y, ref.Y)
}

// TestDroppedFrameRoundDeadline swallows a shard frame entirely: the worker
// keeps heartbeating (so liveness never fires) but the round deadline must
// catch the lost exchange, count it, and recover to the exact clean-run
// factors.
func TestDroppedFrameRoundDeadline(t *testing.T) {
	mx, err := sweepSpec.Load()
	if err != nil {
		t.Fatal(err)
	}
	ref := sweepRef(t)
	plan := chaosnet.NewPlan(31,
		chaosnet.Fault{Rank: 1, Dir: chaosnet.In, Frame: 2, Action: chaosnet.Drop})
	reg := obs.NewRegistry()
	cfg := sweepConfig(2, plan)
	cfg.HeartbeatInterval = 20 * time.Millisecond
	cfg.HeartbeatTimeout = 5 * time.Second
	cfg.RoundTimeout = 700 * time.Millisecond
	cfg.Registry = reg
	m, info, err := Train(mx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Respawns < 1 {
		t.Fatalf("respawns=%d, want >=1", info.Respawns)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`als_dist_worker_failures_total{reason="round-deadline"} 1`,
		`als_dist_round_deadline_exceeded_total 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q in:\n%s", want, text)
		}
	}
	bitsEqual(t, "X", m.X, ref.X)
	bitsEqual(t, "Y", m.Y, ref.Y)
}

// TestAllWorkersLost pins the terminal case: a failure every cohort hits
// deterministically (each rank takes its setup, then reports that it cannot
// start) burns the respawn budget, downscales to nothing, and surfaces the
// workers' own error instead of hanging or succeeding vacuously. A
// respawned rank is also sent the factor seeds, which the fake reads past
// until the coordinator hangs up: closing first, with a seed unread, would
// reset the connection under the coordinator's write of it, and the run
// would end on that error instead of the rank's.
func TestAllWorkersLost(t *testing.T) {
	mx, err := sweepSpec.Load()
	if err != nil {
		t.Fatal(err)
	}
	cfg := sweepConfig(2, nil)
	cfg.MaxRespawns = 2
	cfg.Spawn = func(rank int, addr string) (func(), error) {
		go func() {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return
			}
			w := newWire(c, nil, nil)
			defer w.close()
			w.writeSmall(frameHello, framing.HelloPayload(int32(rank)))
			w.readSmall(nil) // config
			w.expectData(halfX)
			w.expectData(halfY)
			w.writeSmall(frameError, []byte("rank cannot start"))
			io.Copy(io.Discard, c)
		}()
		return func() {}, nil
	}
	_, _, err = Train(mx, cfg)
	if err == nil {
		t.Fatal("run whose workers all fail succeeded")
	}
	if !strings.Contains(err.Error(), "all workers lost") || !strings.Contains(err.Error(), "rank cannot start") {
		t.Fatalf("error %q does not name the terminal condition and the workers' message", err)
	}
}

// TestRanksReadOnlyFrames: a rank's ratings are the frames it is sent. A
// run whose Data names a file that does not exist trains the single-process
// model bit for bit, so no rank opened anything; the data frames are counted
// apart from the factor exchange, and a respawned rank is counted again.
func TestRanksReadOnlyFrames(t *testing.T) {
	mx, err := sweepSpec.Load()
	if err != nil {
		t.Fatal(err)
	}
	ref := sweepRef(t)
	const workers = 2
	cfg := sweepConfig(workers, nil)
	cfg.Data = DataSpec{Input: "/nonexistent/ratings.csv"}
	m, info, err := Train(mx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "X", m.X, ref.X)
	bitsEqual(t, "Y", m.Y, ref.Y)

	frame := func(rows, nnz int) int64 {
		return int64(framing.PrologueLen) + int64(dataFrameLen(uint64(rows), uint64(nnz))) + framing.CRCTrailer
	}
	var want, rank1 int64
	for rank := 0; rank < workers; rank++ {
		for _, side := range []*sparse.CSR{mx.R, mx.RT()} {
			lo, hi := Range(side.NumRows, rank, workers)
			n := frame(hi-lo, int(side.RowPtr[hi]-side.RowPtr[lo]))
			want += n
			if rank == 1 {
				rank1 += n
			}
		}
	}
	if info.DataBytes != want {
		t.Fatalf("DataBytes = %d, want %d (two data frames per rank)", info.DataBytes, want)
	}
	clean := info.BroadcastBytes

	// Rank 1 loses its connection at its first shard and is respawned: it is
	// sent its rows again, and only that is added to the data count.
	plan := chaosnet.NewPlan(1, chaosnet.Fault{Rank: 1, Dir: chaosnet.In, Frame: 2, Action: chaosnet.Sever})
	_, info, err = Train(mx, sweepConfig(workers, plan))
	if err != nil {
		t.Fatal(err)
	}
	if info.Respawns != 1 || info.DataBytes != want+rank1 {
		t.Fatalf("after %d respawn(s) DataBytes = %d, want %d + %d", info.Respawns, info.DataBytes, want, rank1)
	}
	if info.BroadcastBytes <= clean {
		t.Fatalf("BroadcastBytes = %d after a respawn, clean run %d: the re-sent factor seeds are exchange traffic", info.BroadcastBytes, clean)
	}
}

// TestTrainerInterrupt closes the Interrupt channel before training: the run
// must stop at the first iteration boundary with ErrInterrupted and a
// checkpoint on disk, and a -resume run must finish with the clean-run bits.
func TestTrainerInterrupt(t *testing.T) {
	mx, err := sweepSpec.Load()
	if err != nil {
		t.Fatal(err)
	}
	ref := sweepRef(t)
	dir := t.TempDir()

	ch := make(chan struct{})
	close(ch)
	cfg := sweepConfig(2, nil)
	cfg.CheckpointDir = dir
	cfg.Interrupt = ch
	_, info, err := Train(mx, cfg)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if info == nil || info.FinalWorkers == 0 {
		t.Fatal("interrupted run returned no info")
	}
	st, _, err := checkpoint.LoadLatest(checkpoint.OS, dir)
	if err != nil {
		t.Fatalf("no checkpoint after interrupt: %v", err)
	}
	if st.Iteration != 1 {
		t.Fatalf("checkpoint at iteration %d, want 1", st.Iteration)
	}

	cfg = sweepConfig(2, nil)
	cfg.CheckpointDir = dir
	cfg.Resume = true
	m, info, err := Train(mx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if info.ResumedFrom != 1 {
		t.Fatalf("resumed from %d, want 1", info.ResumedFrom)
	}
	bitsEqual(t, "X", m.X, ref.X)
	bitsEqual(t, "Y", m.Y, ref.Y)
}
