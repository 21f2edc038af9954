package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/guard"
	"repro/internal/host"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/rtrace"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/sparse"
	"repro/internal/variant"
)

// Sampling budgets of the per-layer loops: a loop stops at whichever comes
// first, so big catalogs do not stretch the traced run.
const (
	loopCalls  = 2000
	loopBudget = time.Second
)

// sampleLoop calls fn up to loopCalls times within loopBudget and returns
// each call's own timing in microseconds. fn times only the layer call, not
// the preparation of its arguments.
func sampleLoop(fn func(i int) time.Duration) []float64 {
	var us []float64
	start := time.Now()
	for i := 0; i < loopCalls && time.Since(start) < loopBudget; i++ {
		us = append(us, float64(fn(i).Nanoseconds())/1e3)
	}
	return us
}

// startSpan opens a child of ctx's active span, tagged with the workload.
// The untraced run's context carries no span, and then this records nothing.
func startSpan(ctx context.Context, w workload, name string) (context.Context, *rtrace.Span) {
	ctx, s := rtrace.StartChild(ctx, name)
	s.SetAttr("workload", w.Name)
	return ctx, s
}

// timed runs fn inside a span and returns the seconds it took.
func timed(ctx context.Context, w workload, name string, fn func() error) (float64, error) {
	_, s := startSpan(ctx, w, name)
	start := time.Now()
	err := fn()
	d := time.Since(start).Seconds()
	s.End()
	return d, err
}

// medianMs runs fn reps times and returns the median in milliseconds.
func medianMs(reps int, fn func() error) (float64, error) {
	var ms []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(ms), nil
}

func (w workload) hostConfig(seed int64) host.Config {
	return host.Config{
		K: w.K, Lambda: float32(w.Lambda), Iterations: w.Iters, Seed: seed,
		Workers: childProcs(), Variant: variant.Options{Vector: true, Fused: true},
		Implicit: w.Implicit, Alpha: float32(w.Alpha), Solver: w.Solver, CGIters: w.CGIters,
	}
}

// coreConfig configures core.Train the way alstrain does for this workload:
// guard armed, a checkpoint after every iteration, all of them kept.
func (w workload) coreConfig(seed int64, ckptDir string) core.Config {
	return core.Config{
		K: w.K, Lambda: float32(w.Lambda), Iterations: w.Iters, Seed: seed,
		UseRecommended: true, Workers: childProcs(),
		Implicit: w.Implicit, Alpha: float32(w.Alpha), Solver: w.Solver, CGIters: w.CGIters,
		CheckpointDir: ckptDir, CheckpointEvery: 1, CheckpointKeep: w.Iters,
		CheckpointPrecision: w.Precision,
		Guard:               guard.New(guard.Policy{}),
	}
}

// runTraced times every layer of one workload in-process, from the
// benchmark's side of each package's public API, and reports the per-layer
// metrics. Same seed and sizes as the untraced run; none of its numbers feed
// the end-to-end metrics.
func (rn *runner) runTraced(w workload, seed int64) (*result, error) {
	res, o := newResult(w, true), &ops{}
	dir := filepath.Join(rn.workDir, w.Name+"-traced")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	before := canary()
	// Spans go to an in-memory rtrace ring (a run records a few dozen) and
	// are written out once, as a Chrome trace, when the workload is done.
	tracer := rtrace.New(rtrace.Config{Sample: 1, Process: "bench", Slowest: -1})
	ctx, root := tracer.StartRequest(context.Background(), "workload "+w.Name, rtrace.SpanContext{})
	root.SetAttr("workload", w.Name)

	// Set-up.
	setupCtx, setup := startSpan(ctx, w, "setup")
	in, err := prepareInputs(setupCtx, w, seed, dir)
	setup.End()
	if err != nil {
		return nil, err
	}
	res.set("dataset.generate_s", in.seconds.generate)
	res.set("dataset.split_s", in.seconds.split)
	res.set("sparse.write_triples_s", in.seconds.write)

	// Ingest, as every trainer process and every alsserve -ratings does.
	var coo *sparse.COO
	readS, err := timed(ctx, w, "sparse.read_triples", func() error {
		f, err := os.Open(in.ratingsPath)
		if err != nil {
			return err
		}
		defer f.Close()
		coo, err = sparse.ReadTriples(f, false)
		return err
	})
	if err != nil {
		return nil, err
	}
	var mx *sparse.Matrix
	buildS, err := timed(ctx, w, "sparse.build_matrix", func() error {
		var err error
		mx, err = sparse.NewMatrix(coo)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.set("sparse.read_triples_s", readS)
	res.set("sparse.build_matrix_s", buildS)

	// The bare solver: no guard, no checkpoints.
	hcfg := w.hostConfig(seed)
	var marks []time.Time
	hcfg.OnIteration = func(int, *linalg.Dense, *linalg.Dense, []host.IterStats) error {
		marks = append(marks, time.Now())
		return nil
	}
	var hres *host.Result
	hostS, err := timed(ctx, w, "host.train", func() error {
		var err error
		hres, err = host.Train(mx, hcfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	var iterS []float64
	for i := 1; i < len(marks); i++ {
		iterS = append(iterS, marks[i].Sub(marks[i-1]).Seconds())
	}
	iter := median(iterS)
	res.set("host.train_s", hostS)
	res.set("host.iter_s", iter)
	res.set("host.rows_per_s", float64(mx.Rows()+mx.Cols())/iter)

	// One replayed pass of the row kernels over every row and column.
	var k kernelSeconds
	if _, err := timed(ctx, w, "linalg.replay", func() error {
		var err error
		k, err = replayKernels(w, mx, hres.X, hres.Y)
		return err
	}); err != nil {
		return nil, err
	}
	res.set("linalg.gram_rhs_s", k.gramRHS)
	res.set("linalg.solve_s", k.solve)
	res.set("linalg.shared_gram_s", k.sharedGram)
	res.set("linalg.kernel_share", (k.gramRHS+k.solve+k.sharedGram)/(iter*float64(childProcs())))

	// The trainer as alstrain configures it.
	ckptDir := filepath.Join(dir, "ckpt")
	cpu0 := selfCPUSeconds() // nothing else runs in this process meanwhile
	coreS, err := timed(ctx, w, "core.train", func() error {
		_, _, err := core.Train(mx, w.coreConfig(seed, ckptDir))
		return err
	})
	if err != nil {
		return nil, err
	}
	coreCPU := selfCPUSeconds() - cpu0
	o.attempted++
	target, err := findTarget(w, in, ckptDir)
	if err != nil {
		return nil, err
	}
	if target.iteration > w.Iters {
		o.failf("training missed its target ratio %g", w.TargetRatio)
	} else if !target.floorOK {
		o.failf("held-out quality %g at iteration %d is past the workload's floor", target.quality, target.iteration)
	}
	res.set("core.train_s", coreS)
	res.set("core.train_cpu_s", coreCPU)
	res.set("core.overhead_s", coreS-hostS)
	res.set("core.iters_to_target", float64(target.iteration))
	res.set("core.objective_final", target.final)
	rmse, recall := target.quality, 0.0
	if w.Implicit {
		rmse, recall = 0, target.quality
	}
	res.set("core.heldout_rmse", rmse)
	res.set("core.heldout_recall10", recall)

	if w.RecorderTax {
		// The same trainer with the observability recorder attached.
		cfg := w.coreConfig(seed, filepath.Join(dir, "ckpt-obs"))
		cfg.Obs = obs.NewTrainRecorder()
		obsS, err := timed(ctx, w, "core.train+obs", func() error {
			_, _, err := core.Train(mx, cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		res.set("obs.recorder_tax_pct", 100*(obsS-coreS)/coreS)
	} else {
		res.set("obs.recorder_tax_pct", 0)
	}

	final, err := checkpoint.Load(checkpoint.OS, filepath.Join(ckptDir, checkpoint.FileName(w.Iters)))
	if err != nil {
		return nil, err
	}
	t := &tracedRun{
		w: w, in: in, mx: mx, final: final, ckptDir: ckptDir, seed: seed,
		clientLoop: time.Duration(rn.seconds) * time.Second / 8,
		o:          o, res: res,
	}
	if err := t.checkpoint(ctx, dir); err != nil {
		return nil, err
	}
	t.scan(ctx)
	if err := t.serve(ctx); err != nil {
		return nil, err
	}
	if err := t.fleet(ctx, hostS); err != nil {
		return nil, err
	}

	root.End()
	after := canary()
	res.set("bench.canary_before", before)
	res.set("bench.canary_after", after)
	res.Disturbed = math.Abs(after-before) > 0.1*math.Max(after, before)
	traceDir := filepath.Join(rn.root, ".bench_build", "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	res.TraceFile = filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.trace.json", w.Name, seed))
	if err := writeTrace(tracer, res.TraceFile); err != nil {
		return nil, err
	}
	res.finish(o, rn.man.PerLayer)
	return res, nil
}

func writeTrace(tracer *rtrace.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedRun is what the serving-side phases of a traced run share: the
// trained state they all start from and where their findings go.
type tracedRun struct {
	w          workload
	in         *inputs
	mx         *sparse.Matrix    // the ratings as the programs read them back
	final      *checkpoint.State // the last checkpoint of the core.Train run
	ckptDir    string
	seed       int64
	clientLoop time.Duration // length of the loopback client loop: an eighth of --seconds
	o          *ops
	res        *result
}

// users is the workload's request schedule, restarted: every loop that
// compares two handlers replays the same users.
func (t *tracedRun) users() *dataset.ZipfSampler {
	return dataset.NewZipfSampler(t.final.X.Rows, zipfSkew, t.seed)
}

// kernelSeconds is single-thread time in the row kernels for one full pass
// (every user row, then every item column).
type kernelSeconds struct{ gramRHS, solve, sharedGram float64 }

// replayKernels repeats what one iteration asks of internal/linalg, outside
// the worker pool: the fused Gram+RHS accumulation and the k×k solve for
// explicit Cholesky workloads; the shared Gram, the confidence-weighted RHS
// and the CG solve for implicit CG ones.
func replayKernels(w workload, mx *sparse.Matrix, x, y *linalg.Dense) (kernelSeconds, error) {
	var ks kernelSeconds
	k := w.K
	lam, alpha := float32(w.Lambda), float32(w.Alpha)
	packed := make([]float32, linalg.PackedLen(k))
	rhs := make([]float32, k)
	sol := make([]float32, k)
	r, p, ap := make([]float32, k), make([]float32, k), make([]float32, k)
	var gram *linalg.SharedGram
	row := func(fixed *linalg.Dense, cur []float32, cols []int32, vals []float32) error {
		if len(cols) == 0 {
			return nil
		}
		t0 := time.Now()
		if w.Implicit {
			linalg.ConfRHS(fixed.Data, k, cols, vals, alpha, rhs)
		} else {
			linalg.GramRHSFusedUnrolled(fixed.Data, k, cols, vals, packed, rhs)
		}
		t1 := time.Now()
		var err error
		if w.Implicit {
			copy(sol, cur)
			sys := linalg.CGSystem{G: gram.Dense, K: k, Src: fixed.Data, Cols: cols, Vals: vals, Alpha: alpha, Lam: lam}
			err = linalg.CGSolve(&sys, rhs, sol, w.CGIters, r, p, ap)
		} else {
			linalg.AddDiagPacked(packed, k, lam)
			err = linalg.CholeskySolvePacked(packed, k, rhs)
		}
		ks.gramRHS += t1.Sub(t0).Seconds()
		ks.solve += time.Since(t1).Seconds()
		return err
	}
	switch {
	case w.Implicit && w.Solver == host.SolverCG:
		gram = linalg.NewSharedGram(k)
	case !w.Implicit && w.Solver == host.SolverCholesky:
	default:
		return ks, fmt.Errorf("kernel replay covers explicit Cholesky and implicit CG, not this mode")
	}
	side := func(fixed, out *linalg.Dense, n int, at func(i int) ([]int32, []float32)) error {
		if gram != nil {
			t0 := time.Now()
			gram.Compute(fixed)
			ks.sharedGram += time.Since(t0).Seconds()
		}
		for i := 0; i < n; i++ {
			cols, vals := at(i)
			if err := row(fixed, out.Row(i), cols, vals); err != nil {
				return fmt.Errorf("row %d: %w", i, err)
			}
		}
		return nil
	}
	if err := side(y, x, mx.Rows(), mx.R.Row); err != nil {
		return ks, err
	}
	return ks, side(x, y, mx.Cols(), mx.C.Col)
}

// checkpoint times the checkpoint codec and the durable write on the final
// state of the run.
func (t *tracedRun) checkpoint(ctx context.Context, dir string) error {
	res := t.res
	st := *t.final
	st.QX, st.QY = nil, nil // encode from float32, as the trainer does
	_, span := startSpan(ctx, t.w, "checkpoint")
	defer span.End()
	encodeMs, err := medianMs(5, func() error { return checkpoint.Encode(io.Discard, &st) })
	if err != nil {
		return err
	}
	saveDir := filepath.Join(dir, "ckpt-save")
	var path string
	saveMs, err := medianMs(5, func() error {
		var err error
		path, err = checkpoint.Save(checkpoint.OS, saveDir, &st)
		return err
	})
	if err != nil {
		return err
	}
	loadMs, err := medianMs(5, func() error {
		_, err := checkpoint.Load(checkpoint.OS, path)
		return err
	})
	if err != nil {
		return err
	}
	res.set("checkpoint.encode_ms", encodeMs)
	res.set("checkpoint.save_ms", saveMs)
	res.set("checkpoint.load_ms", loadMs)
	res.set("checkpoint.bytes", float64(st.EncodedSize()))
	return nil
}

// scan times the two top-N kernels the serving layer chooses between: the
// float32 reference scan and the quantized scan (at the workload's
// precision, or i8 when the workload serves float32).
func (t *tracedRun) scan(ctx context.Context) {
	final, mx, res, users := t.final, t.mx, t.res, t.users()
	_, span := startSpan(ctx, t.w, "scan kernels")
	defer span.End()
	prec := t.w.Precision
	if prec == quant.F32 {
		prec = quant.I8
	}
	var q *quant.Matrix
	encodeMs, err := medianMs(3, func() error {
		var err error
		q, err = quant.EncodeDense(final.Y, prec)
		return err
	})
	if err != nil {
		// Only non-finite factors fail to encode; the objective check
		// upstream has already failed the run in that case.
		res.set("quant.encode_ms", 0)
		res.set("quant.scan_us", 0)
		res.set("quant.max_abs_err", 0)
	} else {
		top := metrics.NewTopK(topN)
		scan := sampleLoop(func(int) time.Duration {
			x := final.X.Row(users.Draw())
			t0 := time.Now()
			top.Reset()
			q.ScanTopK(q.Prepare(x), 0, q.Rows, nil, top)
			return time.Since(t0)
		})
		res.set("quant.encode_ms", encodeMs)
		res.set("quant.scan_us", median(scan))
		res.set("quant.max_abs_err", q.MaxAbsErr)
	}
	topn := sampleLoop(func(int) time.Duration {
		u := users.Draw()
		t0 := time.Now()
		metrics.TopN(mx.R, final.X, final.Y, u, topN)
		return time.Since(t0)
	})
	res.set("metrics.topn_us", median(topn))
}

// cacheSize is alsserve's -cache value for the workload.
func (w workload) cacheSize() int {
	if w.Cache {
		return 0 // the server's default size
	}
	return -1
}

// handled is what handlerLoop saw of one in-process HTTP call.
type handled struct {
	us     float64 // ServeHTTP time
	cached bool    // the response says it came from the response cache
}

func handledUs(hs []handled, keep func(handled) bool) []float64 {
	var us []float64
	for _, h := range hs {
		if keep(h) {
			us = append(us, h.us)
		}
	}
	return us
}

func anyCall(handled) bool { return true }

// handlerLoop drives h with requests built by next, timing ServeHTTP into a
// response recorder, and counts the 429s and the other non-200s.
func handlerLoop(h http.Handler, next func(i int) *http.Request) (calls []handled, shed, failed int) {
	sampleLoop(func(i int) time.Duration {
		req, rw := next(i), httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rw, req)
		d := time.Since(t0)
		switch rw.Code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			shed++
		default:
			failed++
		}
		calls = append(calls, handled{
			us:     float64(d.Nanoseconds()) / 1e3,
			cached: bytes.Contains(rw.Body.Bytes(), []byte(`"cached":true`)),
		})
		return d
	})
	return calls, shed, failed
}

func recommendRequest(user int) *http.Request {
	return httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/recommend?user=%d&n=%d", user, topN), nil)
}

func foldInHTTPRequest(rng *rand.Rand, items int, p dataset.Preset) *http.Request {
	its, vals := foldInRequest(rng, items, p)
	body, _ := json.Marshal(serve.FoldInRequest{Items: its, Ratings: vals, N: topN})
	return httptest.NewRequest(http.MethodPost, "/v1/foldin", bytes.NewReader(body))
}

func modelOf(st *checkpoint.State) *core.Model {
	return &core.Model{K: st.K, X: st.X, Y: st.Y, QY: st.QY,
		Meta: core.Meta{Version: versionName(st.Iteration), Lambda: st.Lambda}}
}

// serve times the single-process serving layer: the watcher's poll (load +
// encode + swap), a bare swap, the scorer, and the HTTP handlers into a
// response recorder — with and without the request tracer.
func (t *tracedRun) serve(ctx context.Context) error {
	w, mx, final, ckptDir, seed, o, res := t.w, t.mx, t.final, t.ckptDir, t.seed, t.o, t.res
	ctx, span := startSpan(ctx, w, "serve")
	defer span.End()
	newServer := func(tracer *rtrace.Tracer) *serve.Server {
		srv := serve.New(serve.Config{Workers: childProcs(), CacheSize: w.cacheSize(), Tracer: tracer})
		srv.SetPrecision(w.Precision)
		return srv
	}
	srv := newServer(nil)
	defer srv.Close()
	pollMs, err := medianMs(3, func() error {
		swapped, err := serve.NewWatcher(srv, serve.WatcherConfig{Dir: ckptDir, Rated: mx.R}).Poll()
		if err == nil && !swapped {
			err = fmt.Errorf("watcher found nothing to install in %s", ckptDir)
		}
		return err
	})
	if err != nil {
		return err
	}
	swapMs, _ := medianMs(3, func() error {
		srv.Swap(modelOf(final), mx.R, "")
		return nil
	})
	res.set("serve.watcher_poll_ms", pollMs)
	res.set("serve.swap_ms", swapMs)

	sn := srv.Current()
	users := t.users()
	// The scorer gets a context without a span: it would otherwise record
	// one per call, which is the tracer tax measured separately below.
	score := sampleLoop(func(int) time.Duration {
		u := users.Draw()
		t0 := time.Now()
		srv.ScoreTopN(context.Background(), sn, sn.Model.X.Row(u), serve.RatedExcluder(sn.Rated, u), topN)
		return time.Since(t0)
	})
	// The same request schedule for the plain and the traced handler.
	users = t.users()
	handler, shed, failed := handlerLoop(srv.Handler(), func(int) *http.Request { return recommendRequest(users.Draw()) })
	hits, misses := srv.ResponseCache().Stats()
	rng := rand.New(rand.NewSource(seed))
	foldin, shedF, failedF := handlerLoop(srv.Handler(), func(int) *http.Request {
		return foldInHTTPRequest(rng, final.Y.Rows, w.Preset)
	})
	o.attempted += len(handler) + len(foldin)
	if failed+failedF > 0 {
		o.failed += failed + failedF
		o.notes = append(o.notes, fmt.Sprintf("%d in-process handler calls answered neither 200 nor 429", failed+failedF))
	}

	traced := newServer(rtrace.New(rtrace.Config{Sample: 1, Process: "bench"}))
	defer traced.Close()
	traced.Swap(modelOf(final), mx.R, "")
	users = t.users()
	withTracer, _, _ := handlerLoop(traced.Handler(), func(int) *http.Request { return recommendRequest(users.Draw()) })

	handlerUs := median(handledUs(handler, anyCall))
	// The fixed cost of a request is what the handler adds around the scan,
	// so it is read off the calls that did scan.
	scanned := handledUs(handler, func(h handled) bool { return !h.cached })
	res.set("serve.score_topn_us", median(score))
	res.set("serve.handler_us", handlerUs)
	res.set("serve.fixed_us", median(scanned)-median(score))
	res.set("serve.foldin_handler_us", median(handledUs(foldin, anyCall)))
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	res.set("serve.cache_hit_ratio", ratio)
	res.set("serve.shed_total", float64(shed+shedF))
	res.set("rtrace.handler_tax_us", median(handledUs(withTracer, anyCall))-handlerUs)

	if w.Shards == 1 {
		t.client(ctx, srv.Handler(), handlerUs)
	}
	return nil
}

// client measures what the network adds: the workload's closed-loop clients
// against the same handler behind a loopback listener, minus the in-process
// handler time.
func (t *tracedRun) client(ctx context.Context, h http.Handler, handlerUs float64) {
	_, span := startSpan(ctx, t.w, "client loop")
	defer span.End()
	ts := httptest.NewServer(h)
	defer ts.Close()
	clients, wait := startClients(t.w, ts.URL, t.final.X.Rows, t.final.Y.Rows, t.seed, childProcs(), time.Now(), t.clientLoop)
	wait()
	var lat []float64
	errs := 0
	for _, cl := range clients {
		for _, r := range cl.requests {
			if !r.ok {
				errs++
				continue
			}
			lat = append(lat, float64(r.end-r.start)/float64(time.Microsecond))
		}
	}
	t.res.set("client.http_us", percentile(lat, 0.5)-handlerUs)
	t.res.set("client.p99_ms", percentile(lat, 0.99)/1e3)
	t.res.set("client.errors", float64(errs))
}

// timedHandler wraps a replica's handler and keeps each call's duration, so
// a frontend request can be split into its slowest leg and the rest.
type timedHandler struct {
	h  http.Handler
	mu sync.Mutex
	us []float64
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	d := float64(time.Since(t0).Nanoseconds()) / 1e3
	t.mu.Lock()
	t.us = append(t.us, d)
	t.mu.Unlock()
}

func (t *timedHandler) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.us)
}

// since sums the calls recorded from mark on.
func (t *timedHandler) since(mark int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s float64
	for _, d := range t.us[mark:] {
		s += d
	}
	return s
}

var shardMetricNames = [...]string{
	"shard.train_s", "shard.exchange_s", "shard.broadcast_bytes", "shard.frontend_handler_us",
	"shard.replica_handler_us", "shard.merge_us", "shard.foldin_frontend_us",
	"shard.partial_total", "shard.retries_total",
}

// fleet times the distributed layers of a sharded workload: the BSP trainer
// with its workers as goroutines, and the scatter-gather frontend over
// replicas behind loopback listeners. Workloads without shards report zeros.
// hostS is the bare host.Train time the exchange is measured against.
func (t *tracedRun) fleet(ctx context.Context, hostS float64) error {
	w, in, mx, ckptDir, seed, o, res := t.w, t.in, t.mx, t.ckptDir, t.seed, t.o, t.res
	if w.Shards <= 1 {
		for _, name := range shardMetricNames {
			res.set(name, 0)
		}
		return nil
	}
	ctx, span := startSpan(ctx, w, "shard")
	defer span.End()
	var info *shard.TrainInfo
	trainS, err := timed(ctx, w, "shard.train", func() error {
		var err error
		_, info, err = shard.Train(mx, shard.TrainerConfig{
			Workers: w.DistWorkers, Threads: 1,
			K: w.K, Lambda: float32(w.Lambda), Iterations: w.Iters, Seed: seed, UseRecommended: true,
			Data: shard.DataSpec{Input: in.ratingsPath, Seed: seed},
			// Liveness frames are sent on a timer and counted as traffic;
			// without them the byte count is exact. Goroutine workers
			// cannot hang unnoticed anyway.
			HeartbeatInterval: -1,
		})
		return err
	})
	if err != nil {
		return err
	}
	res.set("shard.train_s", trainS)
	res.set("shard.exchange_s", trainS-hostS)
	res.set("shard.broadcast_bytes", float64(info.BroadcastBytes))

	var urls []string
	var legs []*timedHandler
	for i := 0; i < w.Shards; i++ {
		srv := serve.New(serve.Config{Workers: childProcs(), CacheSize: w.cacheSize()})
		defer srv.Close()
		srv.SetPrecision(w.Precision)
		rep, err := shard.NewReplica(srv, shard.ReplicaConfig{Index: i, Count: w.Shards})
		if err != nil {
			return err
		}
		watcher := serve.NewWatcher(srv, serve.WatcherConfig{Dir: ckptDir, Rated: mx.R, Transform: rep.Transform})
		if swapped, err := watcher.Poll(); err != nil || !swapped {
			return fmt.Errorf("replica %d installed nothing from %s (%v)", i, ckptDir, err)
		}
		leg := &timedHandler{h: rep.Handler()}
		ts := httptest.NewServer(leg)
		defer ts.Close()
		legs = append(legs, leg)
		urls = append(urls, ts.URL)
	}
	front, err := shard.NewFrontend(shard.FrontendConfig{Shards: urls})
	if err != nil {
		return err
	}
	front.ProbeOnce(context.Background())
	if err := front.Ready(); err != nil {
		return err
	}

	// Requests go through the frontend one at a time, so every call a
	// replica records between two marks belongs to the request in between.
	slowestLeg := func(marks []int) float64 {
		var slow float64
		for i, leg := range legs {
			slow = math.Max(slow, leg.since(marks[i]))
		}
		return slow
	}
	var merge, replica []float64
	split := func(next func(int) *http.Request) ([]handled, int, int) {
		return handlerLoop(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			marks := make([]int, len(legs))
			for i, leg := range legs {
				marks[i] = leg.mark()
			}
			t0 := time.Now()
			front.Handler().ServeHTTP(rw, r)
			total := float64(time.Since(t0).Nanoseconds()) / 1e3
			slow := slowestLeg(marks)
			merge = append(merge, total-slow)
			replica = append(replica, slow)
		}), next)
	}
	users := t.users()
	frontend, _, failed := split(func(int) *http.Request { return recommendRequest(users.Draw()) })
	recMerge, recReplica := median(merge), median(replica)
	rng := rand.New(rand.NewSource(seed))
	foldin, _, failedF := split(func(int) *http.Request { return foldInHTTPRequest(rng, mx.Cols(), w.Preset) })
	o.attempted += len(frontend) + len(foldin)
	if failed+failedF > 0 {
		o.failed += failed + failedF
		o.notes = append(o.notes, fmt.Sprintf("%d in-process frontend calls answered neither 200 nor 429", failed+failedF))
	}
	frontendUs := median(handledUs(frontend, anyCall))
	res.set("shard.frontend_handler_us", frontendUs)
	res.set("shard.replica_handler_us", recReplica)
	res.set("shard.merge_us", recMerge)
	res.set("shard.foldin_frontend_us", median(handledUs(foldin, anyCall)))
	var exposition bytes.Buffer
	if err := front.Registry().WritePrometheus(&exposition); err != nil {
		return err
	}
	res.set("shard.partial_total", sumSeries(exposition.String(), "als_shard_partial_total"))
	res.set("shard.retries_total", sumSeries(exposition.String(), "als_shard_retries_total"))

	t.client(ctx, front.Handler(), frontendUs)
	return nil
}

// sumSeries adds up every sample of one metric family in a Prometheus text
// exposition (all label sets).
func sumSeries(exposition, family string) float64 {
	var sum float64
	sc := bufio.NewScanner(strings.NewReader(exposition))
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, family)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}
