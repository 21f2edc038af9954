package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/framing"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/rtrace"
	"repro/internal/sparse"
)

// ErrInterrupted reports a training run stopped by TrainerConfig.Interrupt
// (alstrain wires SIGINT/SIGTERM into it). The run's latest state is
// checkpointed before the error is returned, so the run is resumable. It is
// core's sentinel: one interrupted-run error for both trainers.
var ErrInterrupted = core.ErrInterrupted

// errRoundDeadline marks a half-iteration exchange that outlived
// RoundTimeout even though the worker kept heartbeating — the
// lost-in-transit case (e.g. a dropped frame) that liveness alone cannot
// catch.
var errRoundDeadline = errors.New("shard: round deadline exceeded")

// errSpawnFailed marks a worker that could not be started or never completed
// its handshake.
var errSpawnFailed = errors.New("shard: worker spawn failed")

// resumePoint names the half-iteration boundary a (re)spawned worker starts
// from: the first half it computes is iteration iter's X half, or its Y half
// when startY is set. The seed a worker needs at any such boundary is
// exactly the coordinator's in-memory factors — the Y half only consumes the
// X side assembled this iteration, and the X half only the Y side of the
// previous one — which is why recovery restarts the interrupted half, never
// the whole run.
type resumePoint struct {
	iter   int
	startY bool
}

// supWorker is one live rank: its framed connection and the stop function
// its spawn returned.
type supWorker struct {
	wire *wire
	stop func()
}

// supervisor owns the worker cohort of a distributed run: it spawns and
// accepts workers, runs the per-half gather/broadcast exchange under
// heartbeat and round deadlines, and — when a worker dies, hangs, or sends a
// corrupt frame — either respawns the rank seeded from the in-memory factors
// or elastically downscales the cohort to the survivors once the respawn
// budget is spent. Downscaling is safe because row updates are pure
// functions of the fixed side: a W'-worker cohort resumed from the same
// boundary produces bit-identical factors (the PR-6 invariance).
type supervisor struct {
	cfg     *TrainerConfig
	lis     net.Listener
	addr    string
	spawn   func(rank int, addr string) (func(), error)
	traffic *atomic.Int64 // factor and control frames, both directions
	data    *atomic.Int64 // data frames

	r, rt   *sparse.CSR // the two sides the ranks' rows are cut from: R and Rᵀ
	m, n, k int
	x, y    *linalg.Dense
	vname   string

	total   int          // current cohort size
	workers []*supWorker // indexed by rank; nil = dead

	started    time.Time
	failuresN  int
	respawns   int
	downscales int
	allStops   []func()

	runCtx context.Context
	root   *rtrace.Span

	failuresVec *obs.Vec
	respawnsC   *obs.Metric
	deadlineC   *obs.Metric
}

func (s *supervisor) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// close shuts the whole cohort down: every connection is closed and every
// stop function ever handed out is invoked (stops are idempotent), so no
// worker outlives the run regardless of how it ended.
func (s *supervisor) close() {
	for _, w := range s.workers {
		if w != nil {
			w.wire.close()
		}
	}
	for _, stop := range s.allStops {
		stop()
	}
}

func (s *supervisor) chaosWrap(c net.Conn) net.Conn {
	if s.cfg.NetChaos != nil {
		return s.cfg.NetChaos.Wrap(c)
	}
	return c
}

// liveRanks lists the cohort's live ranks in order.
func (s *supervisor) liveRanks() []int {
	var ranks []int
	for r, w := range s.workers {
		if w != nil {
			ranks = append(ranks, r)
		}
	}
	return ranks
}

// spawnRanks starts the given ranks, accepts their hellos, and sends each
// its config (plus trace context and factor seeds). Ranks that fail anywhere
// along that path are returned with their errors; successes are installed in
// the cohort.
func (s *supervisor) spawnRanks(ranks []int, point resumePoint, seeded bool) map[int]error {
	failed := map[int]error{}
	stops := map[int]func(){}
	want := map[int]bool{}
	deadline := time.Now().Add(s.cfg.SpawnTimeout)
	for _, r := range ranks {
		if s.workers[r] != nil {
			s.shutdownRank(r)
		}
		stop, err := s.spawn(r, s.addr)
		if err != nil {
			failed[r] = fmt.Errorf("%w: rank %d: %v", errSpawnFailed, r, err)
			continue
		}
		s.allStops = append(s.allStops, stop)
		stops[r] = stop
		want[r] = true
	}
	got, acceptErr := s.acceptRanks(want, deadline)
	for r := range want {
		wc, ok := got[r]
		if !ok {
			stops[r]()
			failed[r] = fmt.Errorf("%w: rank %d handshake: %v", errSpawnFailed, r, acceptErr)
			continue
		}
		if err := s.sendSetup(r, wc, point, seeded, deadline); err != nil {
			wc.close()
			stops[r]()
			failed[r] = fmt.Errorf("%w: rank %d setup: %v", errSpawnFailed, r, err)
			continue
		}
		s.workers[r] = &supWorker{wire: wc, stop: stops[r]}
	}
	return failed
}

// acceptRanks collects hello-identified connections for the wanted ranks. A
// connection whose hello cannot be read (severed mid-handshake) cannot be
// attributed to a rank, so it just reduces the number of hellos still
// worth waiting for; whoever stays unmatched is the failure.
func (s *supervisor) acceptRanks(want map[int]bool, deadline time.Time) (map[int]*wire, error) {
	got := map[int]*wire{}
	if len(want) == 0 {
		return got, nil
	}
	if tl, ok := s.lis.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	var lastErr error = fmt.Errorf("no hello before deadline")
	for broken := 0; len(got)+broken < len(want); {
		c, err := s.lis.Accept()
		if err != nil {
			lastErr = err
			break
		}
		c = s.chaosWrap(c)
		c.SetReadDeadline(deadline)
		wc := newWire(c, s.traffic, s.data)
		kind, body, err := wc.readSmall(nil)
		rank32, ok := framing.HelloRank(body)
		if err != nil || kind != frameHello || !ok {
			wc.close()
			broken++
			lastErr = fmt.Errorf("bad hello from %s (kind=%d err=%v)", c.RemoteAddr(), kind, err)
			continue
		}
		rank := int(rank32)
		if !want[rank] || got[rank] != nil {
			wc.close()
			broken++
			lastErr = fmt.Errorf("hello with unexpected or duplicate rank %d", rank)
			continue
		}
		c.SetReadDeadline(time.Time{})
		got[rank] = wc
	}
	return got, lastErr
}

// sendSetup ships a freshly accepted worker its config frame, the trace
// context when the run is traced, the rows of R and of Rᵀ it owns in the
// current cohort, and — when seeded — both factor matrices at the resume
// point's boundary, so the worker can start mid-run. Every way a rank comes
// to be (first spawn, respawn, a downscaled cohort's new ranges) passes
// through here, so this is the one place ratings leave the coordinator.
func (s *supervisor) sendSetup(rank int, wc *wire, point resumePoint, seeded bool, deadline time.Time) error {
	cfg := s.cfg
	wcfg := workerConfig{
		Workers: s.total, Rank: rank,
		K: s.k, Lambda: cfg.Lambda, Iterations: cfg.Iterations, Seed: cfg.Seed,
		WeightedLambda: cfg.WeightedLambda, Flat: cfg.Flat,
		VariantID: cfg.Variant.ID(), Threads: cfg.Threads,
		StartIteration: point.iter - 1, StartY: point.startY,
		Seeded:          seeded,
		HeartbeatMillis: int(cfg.HeartbeatInterval / time.Millisecond),
		Trace:           s.root != nil,
	}
	body, err := json.Marshal(wcfg)
	if err != nil {
		return err
	}
	wc.c.SetWriteDeadline(deadline)
	defer wc.c.SetWriteDeadline(time.Time{})
	if err := wc.writeSmall(frameConfig, body); err != nil {
		return fmt.Errorf("sending config: %w", err)
	}
	if s.root != nil {
		if err := wc.writeSmall(frameTraceCtx, s.root.Context().AppendBinary(nil)); err != nil {
			return fmt.Errorf("sending trace context: %w", err)
		}
	}
	if err := s.shipRows(rank, wc); err != nil {
		return err
	}
	if seeded {
		it := uint32(point.iter - 1)
		if err := wc.writeFactors(factorHeader{Iter: it, Half: halfX, Lo: 0, Rows: uint32(s.m), K: uint32(s.k)}, s.x.Data); err != nil {
			return fmt.Errorf("seeding X: %w", err)
		}
		if err := wc.writeFactors(factorHeader{Iter: it, Half: halfY, Lo: 0, Rows: uint32(s.n), K: uint32(s.k)}, s.y.Data); err != nil {
			return fmt.Errorf("seeding Y: %w", err)
		}
	}
	return nil
}

// shipRows sends a rank the rows of R and of Rᵀ it owns in the current
// cohort, as two data frames.
func (s *supervisor) shipRows(rank int, wc *wire) error {
	var span *rtrace.Span
	if s.root != nil {
		_, span = rtrace.StartChild(s.runCtx, "ship"+strconv.Itoa(rank))
	}
	defer span.End()
	before := s.data.Load()
	for half, side := range [...]*sparse.CSR{halfX: s.r, halfY: s.rt} {
		lo, hi := Range(side.NumRows, rank, s.total)
		if err := wc.writeData(byte(half), lo, side.RowRange(lo, hi)); err != nil {
			return fmt.Errorf("shipping rows [%d,%d) of half %d: %w", lo, hi, half, err)
		}
	}
	span.SetAttr("bytes", strconv.FormatInt(s.data.Load()-before, 10))
	return nil
}

// shutdownRank severs a rank: connection closed, stop invoked, slot cleared.
func (s *supervisor) shutdownRank(rank int) {
	if w := s.workers[rank]; w != nil {
		w.wire.close()
		w.stop()
		s.workers[rank] = nil
	}
}

// classifyFailure buckets a worker failure for the
// als_dist_worker_failures_total reason label.
func classifyFailure(err error) string {
	var wf *workerFailure
	switch {
	case errors.Is(err, errRoundDeadline):
		return "round-deadline"
	case errors.Is(err, ErrFrameCorrupt):
		return "corrupt"
	case errors.Is(err, errSpawnFailed):
		return "spawn"
	case errors.As(err, &wf):
		return "worker"
	case isTimeout(err):
		return "hang"
	default:
		return "conn"
	}
}

func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// noteFailure records one worker failure — counter, trace annotation, log —
// and tears the rank down.
func (s *supervisor) noteFailure(rank int, err error, span *rtrace.Span) {
	reason := classifyFailure(err)
	s.failuresN++
	if s.failuresVec != nil {
		s.failuresVec.With(reason).Inc()
	}
	if reason == "round-deadline" && s.deadlineC != nil {
		s.deadlineC.Inc()
	}
	if span != nil {
		span.SetAttr("failed_worker"+strconv.Itoa(rank), reason)
	}
	s.logf("shard: worker %d failed (%s): %v", rank, reason, err)
	s.shutdownRank(rank)
}

func sortedRanks(m map[int]error) []int {
	ranks := make([]int, 0, len(m))
	for r := range m {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	return ranks
}

// recover replaces or removes the failed ranks so the run can resume from
// point: respawn them (seeded from the in-memory factors) while the respawn
// budget lasts, otherwise kill the cohort and restart the survivors' worth
// of fresh ranks from the same boundary. It returns the ranks that must redo
// the interrupted half — the respawned ranks, or the whole new cohort after
// a downscale — or an error once no workers remain.
func (s *supervisor) recover(failed map[int]error, point resumePoint, span *rtrace.Span) ([]int, error) {
	pending := map[int]bool{}
	for len(failed) > 0 {
		ranks := sortedRanks(failed)
		if s.cfg.MaxRespawns > 0 && s.respawns+len(ranks) <= s.cfg.MaxRespawns {
			s.respawns += len(ranks)
			if s.respawnsC != nil {
				s.respawnsC.Add(float64(len(ranks)))
			}
			if span != nil {
				span.SetAttr("respawned", strconv.Itoa(s.respawns))
			}
			s.logf("shard: respawning worker(s) %v at iteration %d (startY=%v), %d/%d respawns used",
				ranks, point.iter, point.startY, s.respawns, s.cfg.MaxRespawns)
			still := s.spawnRanks(ranks, point, true)
			for _, r := range ranks {
				if _, bad := still[r]; !bad {
					pending[r] = true
				}
			}
			for r, err := range still {
				s.noteFailure(r, err, span)
			}
			failed = still
			continue
		}
		// Elastic downscale: the respawn budget is spent (or respawning is
		// disabled), so the run continues on the survivors alone. The whole
		// cohort is torn down and a fresh, smaller one starts from the same
		// half boundary — bit-identical to a clean run at that worker count.
		survivors := s.total - len(ranks)
		if survivors <= 0 {
			return nil, fmt.Errorf("shard: all workers lost: %w", failed[ranks[0]])
		}
		s.downscales++
		if span != nil {
			span.SetAttr("downscaled_to", strconv.Itoa(survivors))
		}
		s.logf("shard: downscaling %d -> %d workers at iteration %d (startY=%v)",
			s.total, survivors, point.iter, point.startY)
		for r := range s.workers {
			s.shutdownRank(r)
		}
		s.total = survivors
		s.workers = make([]*supWorker, survivors)
		all := make([]int, survivors)
		for i := range all {
			all[i] = i
		}
		pending = map[int]bool{}
		still := s.spawnRanks(all, point, true)
		for _, r := range all {
			if _, bad := still[r]; !bad {
				pending[r] = true
			}
		}
		for r, err := range still {
			s.noteFailure(r, err, span)
		}
		failed = still
	}
	out := make([]int, 0, len(pending))
	for r := range pending {
		out = append(out, r)
	}
	sort.Ints(out)
	return out, nil
}

// iterate runs one full iteration: the X half, then the Y half.
func (s *supervisor) iterate(it int) error {
	if err := s.half(it, halfX); err != nil {
		return fmt.Errorf("iteration %d X half: %w", it, err)
	}
	if err := s.half(it, halfY); err != nil {
		return fmt.Errorf("iteration %d Y half: %w", it, err)
	}
	return nil
}

// half runs one supervised half-iteration exchange: gather every pending
// shard (recovering failed ranks and re-gathering until the side is fully
// assembled), then broadcast the assembled side. Broadcast failures are
// recovered at the *next* half boundary — the dead worker already
// contributed its shard, so the model needs nothing more from it until then.
func (s *supervisor) half(it int, half byte) error {
	rows, dst, name := s.m, s.x.Data, "x"
	if half == halfY {
		rows, dst, name = s.n, s.y.Data, "y"
	}
	hctx := s.runCtx
	var span *rtrace.Span
	if s.root != nil {
		hctx, span = rtrace.StartChild(s.runCtx, "iter"+strconv.Itoa(it)+"/"+name)
	}
	defer span.End()

	point := resumePoint{iter: it, startY: half == halfY}
	pending := s.liveRanks()
	for {
		failed := s.gather(hctx, pending, it, half, rows, dst)
		if len(failed) == 0 {
			break
		}
		for _, r := range sortedRanks(failed) {
			s.noteFailure(r, failed[r], span)
		}
		var err error
		pending, err = s.recover(failed, point, span)
		if err != nil {
			return err
		}
	}

	bfailed := s.broadcast(hctx, it, half, rows, dst)
	if len(bfailed) == 0 {
		return nil
	}
	for _, r := range sortedRanks(bfailed) {
		s.noteFailure(r, bfailed[r], span)
	}
	next := resumePoint{iter: it, startY: true}
	if half == halfY {
		next = resumePoint{iter: it + 1}
	}
	if next.iter > s.cfg.Iterations {
		// Final broadcast: the model is already complete; the failed workers
		// simply exit without their last copy.
		return nil
	}
	_, err := s.recover(bfailed, next, span)
	return err
}

// gather collects the pending ranks' shards concurrently; each rank writes a
// disjoint row range of dst. Failed ranks come back with their errors.
func (s *supervisor) gather(ctx context.Context, pending []int, it int, half byte, rows int, dst []float32) map[int]error {
	gctx := context.Background()
	var gspan *rtrace.Span
	if s.root != nil {
		gctx, gspan = rtrace.StartChild(ctx, "gather")
	}
	defer gspan.End()
	roundDeadline := time.Now().Add(s.cfg.RoundTimeout)
	var mu sync.Mutex
	failed := map[int]error{}
	var wg sync.WaitGroup
	for _, rank := range pending {
		w := s.workers[rank]
		if w == nil {
			failed[rank] = fmt.Errorf("%w: rank %d has no connection", errSpawnFailed, rank)
			continue
		}
		lo, hi := Range(rows, rank, s.total)
		wg.Add(1)
		go func(rank int, w *supWorker, lo, hi int) {
			defer wg.Done()
			var wait *rtrace.Span
			if gspan != nil {
				_, wait = rtrace.StartChild(gctx, "wait worker"+strconv.Itoa(rank))
			}
			err := s.gatherOne(w, it, half, dst, lo, hi-lo, roundDeadline)
			wait.End()
			if err != nil {
				mu.Lock()
				failed[rank] = err
				mu.Unlock()
			}
		}(rank, w, lo, hi)
	}
	wg.Wait()
	return failed
}

// gatherOne reads one rank's shard under liveness supervision: the read
// deadline sits one HeartbeatTimeout out (refreshed on every heartbeat the
// worker emits while computing) but never beyond the round deadline, so a
// hung worker surfaces within seconds and a lost frame within the round.
func (s *supervisor) gatherOne(w *supWorker, it int, half byte, dst []float32, lo, nrows int, roundDeadline time.Time) error {
	arm := func() {
		dl := time.Now().Add(s.cfg.HeartbeatTimeout)
		if dl.After(roundDeadline) {
			dl = roundDeadline
		}
		w.wire.c.SetReadDeadline(dl)
	}
	arm()
	err := w.wire.expectFactors(it, half, s.k, dst, lo, nrows, arm)
	if err != nil && isTimeout(err) && !time.Now().Before(roundDeadline) {
		return fmt.Errorf("%w: %v", errRoundDeadline, err)
	}
	return err
}

// broadcast sends the assembled side to every live rank concurrently, under
// a write deadline so one wedged connection cannot stall the round.
func (s *supervisor) broadcast(ctx context.Context, it int, half byte, rows int, dst []float32) map[int]error {
	var bspan *rtrace.Span
	if s.root != nil {
		_, bspan = rtrace.StartChild(ctx, "broadcast")
	}
	defer bspan.End()
	deadline := time.Now().Add(s.cfg.RoundTimeout)
	h := factorHeader{Iter: uint32(it), Half: half, Lo: 0, Rows: uint32(rows), K: uint32(s.k)}
	var mu sync.Mutex
	failed := map[int]error{}
	var wg sync.WaitGroup
	for _, rank := range s.liveRanks() {
		w := s.workers[rank]
		wg.Add(1)
		go func(rank int, w *supWorker) {
			defer wg.Done()
			w.wire.c.SetWriteDeadline(deadline)
			err := w.wire.writeFactors(h, dst)
			w.wire.c.SetWriteDeadline(time.Time{})
			if err != nil {
				mu.Lock()
				failed[rank] = err
				mu.Unlock()
			}
		}(rank, w)
	}
	wg.Wait()
	return failed
}

// collectSpans drains each surviving worker's end-of-run frameSpans bundle
// into the tracer. Span shipping is best-effort: a worker that died after
// the final broadcast loses its spans, not the run.
func (s *supervisor) collectSpans() {
	if s.root == nil {
		return
	}
	for rank, w := range s.workers {
		if w == nil {
			s.root.SetAttr("spans_lost_worker"+strconv.Itoa(rank), "dead")
			continue
		}
		arm := func() { w.wire.c.SetReadDeadline(time.Now().Add(exchangeTimeout)) }
		arm()
		kind, body, err := w.wire.readSmall(arm)
		if err != nil || kind != frameSpans {
			s.root.SetAttr("spans_lost_worker"+strconv.Itoa(rank), fmt.Sprintf("kind=%d err=%v", kind, err))
			continue
		}
		spans, err := rtrace.DecodeSpans(body)
		if err != nil {
			s.root.SetAttr("spans_lost_worker"+strconv.Itoa(rank), err.Error())
			continue
		}
		s.cfg.Tracer.Ingest(spans)
	}
}
