// Package host implements the ALS solver as real goroutine-parallel Go for
// the machine the benchmarks run on. It is the wall-clock counterpart to the
// simulated-device kernels in internal/kernels: the same code-variant space
// (flat baseline vs. thread batching; register/local/vector/fused toggles)
// mapped to genuine host mechanisms:
//
//   - flat scheduling  -> one static contiguous block of rows per worker,
//     so skewed rows imbalance the workers (the SAC'15 baseline behaviour);
//   - thread batching  -> dynamic chunked work sharing via an atomic cursor,
//     with rows visited longest-first (LPT) so stragglers surface early;
//   - registers        -> the Fig. 3b k-strip accumulator kernel instead of
//     the k×k scratch;
//   - local memory     -> staging the gathered rows of Y (and the row's
//     ratings) into a dense per-worker buffer before computing, i.e. cache
//     blocking;
//   - vector units     -> 4-way unrolled inner loops;
//   - fused            -> S1 and S2 in one sweep over the gathered rows into
//     a packed upper-triangular Gram, solved by a packed Cholesky.
//
// The package has three layers, each in one place:
//
//   - Train (host.go) owns the iteration: one two-sided loop runs the X and
//     Y halves, evaluates the objective at most once per iteration boundary
//     (a second kind of pass over the half just solved, objective.go), and
//     calls the watchdog, the OnIteration hook and early stopping.
//     RangeUpdater (range.go) is the same half over a contiguous row range,
//     for the distributed trainer.
//   - workerPool (host.go) owns the goroutines. Workers are spawned once and
//     persist across all half iterations: each half is a rendezvous on a
//     shared job (an atomic row cursor), not a fresh goroutine fan-out, and
//     every schedule — LPT-ordered chunks or the flat baseline's W static
//     blocks — is the same claim loop with a different chunk and order.
//     Implicit mode's shared Gram is a third kind of pass on the same
//     workers (gramOf), run once per factor per iteration.
//   - rowKernel (kernel.go) owns the row update. It is built once per pool
//     from Config as gather × assemble × solve plus an optional matrix-free
//     first attempt (CG, iALS++ block sweep; implicit.go), and its one
//     updateRow carries the chaos, timing and recovery scaffold for every
//     variant and mode. Each worker's scratch lives for the whole run, so
//     the row-update steady state allocates nothing.
//
// Every variant produces identical factors for identical inputs (the
// package tests assert this), so scheduling and kernel choice change only
// performance — the paper's definition of a code variant.
package host

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/guard"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rtrace"
	"repro/internal/sparse"
	"repro/internal/variant"
)

// Config controls one ALS training run.
type Config struct {
	K          int     // latent factor dimensionality (paper default 10)
	Lambda     float32 // regularization coefficient (paper default 0.1)
	Iterations int     // full ALS iterations (paper uses 5 for timing)
	Workers    int     // goroutines; 0 means GOMAXPROCS
	Seed       int64   // seed for Y's random initial guess

	// Flat selects the SAC'15 baseline scheduling (static contiguous row
	// blocks, scatter kernel) regardless of Variant.
	Flat bool
	// Variant selects the optimization toggles for thread-batched runs.
	Variant variant.Options

	// WeightedLambda enables the ALS-WR convention λ·|Ω_u|·I (Zhou et al.)
	// instead of the paper's plain λI.
	WeightedLambda bool

	// Implicit switches training to implicit-feedback ALS (Hu et al.):
	// ratings become confidences c_ui = 1 + Alpha·r_ui over unit
	// preferences, the shared FᵀF Gram of each fixed factor is accumulated in
	// float64 (every element in factor-row order, whichever worker holds its
	// tile), and the row kernels apply confidence-weighted rank-1 corrections
	// on top of it. The direct-solver path is
	// bit-identical to the reference solver in internal/solvers (the
	// equivalence suite pins it). Incompatible with WeightedLambda. The
	// Fused and Register variant toggles are no-ops in this mode — the
	// confidence kernels are inherently fused into packed register-strip
	// form; Local staging, Vector unrolling and Flat scheduling still apply.
	Implicit bool
	// Alpha is the implicit-mode confidence scale (default 40).
	Alpha float32
	// Solver selects the per-row S3: direct Cholesky (default), direct
	// LDLᵀ, or matrix-free conjugate gradient (CG never assembles the k×k
	// normal matrix — each iteration applies it as k² + |Ω|·k work, so a
	// few warm-started iterations beat the |Ω|·k² assembly at large k). CG
	// results differ from the direct solve within a small tolerance; on
	// breakdown (degenerate system) the row falls back to the assembled
	// system and the guard recovery ladder.
	Solver Solver
	// CGIters bounds the CG iterations per row solve (default 3, following
	// the rusket exemplar's cg_iters).
	CGIters int
	// BlockSize enables iALS++ (arXiv 2110.14044) block-coordinate
	// subspace updates in implicit mode: each row update performs one
	// Gauss-Seidel sweep over ⌈k/b⌉ coordinate blocks, solving only b×b
	// systems, so per-row cost scales as k² + |Ω|·k·b instead of |Ω|·k².
	// 0 = full direct solve. Requires Implicit and the Cholesky solver.
	BlockSize int

	// TrackLoss records the regularized loss (Eq. 2) after every half-step;
	// costs an extra pass over the ratings on the worker pool, so benchmarks
	// leave it off.
	TrackLoss bool
	// Tolerance enables early stopping (Algorithm 1's "until it reaches the
	// maximum specified cycles or error rate"): training stops once the
	// relative loss improvement of a full iteration falls below Tolerance.
	// Implies loss evaluation each iteration. 0 disables.
	Tolerance float64
	// StartIteration resumes a checkpointed run: the loop begins at
	// StartIteration+1 (0 = a fresh run). ResumeX/ResumeY must then carry
	// the factors as of that iteration; they are deep-copied, never
	// mutated. Because every iteration is a pure function of the current
	// factors, a resumed run is bit-identical to an uninterrupted one.
	StartIteration int
	ResumeX        *linalg.Dense
	ResumeY        *linalg.Dense

	// OnIteration, when set, runs after every completed full iteration
	// (workers quiescent, factors stable) with the 1-based iteration
	// number, the live factor matrices, and the history so far. An error
	// aborts training — a checkpoint that cannot be written should stop a
	// run that depends on being resumable.
	OnIteration func(it int, x, y *linalg.Dense, history []IterStats) error

	// Guard, when set, arms the numerical-resilience layer: the solver
	// recovery ladder in the row-update kernel (ridge jitter → LDLᵀ → skip
	// instead of aborting the run), the divergence watchdog at the
	// iteration boundary (typed guard.DivergedError the caller can answer
	// with a checkpoint rollback), and any configured chaos injection. Nil
	// — the library default — keeps the pre-guard fail-fast behavior
	// bit-for-bit, as does Guard.Strict apart from typed errors.
	Guard *guard.Guard

	// Obs, when set, receives the run's live counters: half iterations,
	// per-worker utilization, per-stage kernel time, and loss points.
	Obs *obs.TrainRecorder
	// Trace, when it carries a live rtrace span (core.Train's root "train"),
	// receives the run's timeline as children of that span: "iter<N>/x" and
	// "iter<N>/y" per half iteration (attributes: rows, nnz, rows/s,
	// per-stage ms, each worker's busy ms, chunks and rows) and "objective"
	// per loss evaluation. Either field turns the measuring on — a slot per
	// worker filled at the half rendezvous, stage timers around S1/S2/S3 in
	// updateRow; with both unset a half pays one nil check and the row
	// update stays untouched and allocation-free.
	Trace context.Context
}

// liveTrace returns Trace when it carries a live span, nil otherwise.
func (c *Config) liveTrace() context.Context {
	if c.Trace != nil && rtrace.Active(c.Trace) {
		return c.Trace
	}
	return nil
}

// chunkRowNNZBudget caps a default chunk's work: one claim covers roughly
// this many nonzeros. Without the cap a 64-row chunk is microseconds of work
// on a sparse side but a serial straggler on a dense one.
const chunkRowNNZBudget = 4096

// defaultChunk sizes a batched worker's claim for an m-row side holding nnz
// ratings: small enough that every worker sees several chunks (dynamic
// balancing), and capped by the mean row degree so claim granularity is
// roughly constant in work rather than in rows.
func defaultChunk(m, nnz, workers int) int {
	c := 64
	if v := 1 + m/(workers*8); v < c {
		c = v
	}
	if m > 0 && nnz > 0 {
		meanDeg := (nnz + m - 1) / m
		if byWork := chunkRowNNZBudget / meanDeg; byWork < c {
			c = byWork
		}
	}
	if c < 1 {
		c = 1
	}
	return c
}

// DefaultAlpha and DefaultCGIters are what an unset (≤ 0) Config.Alpha and
// Config.CGIters train with. core.Train resolves them before it builds a run,
// so a checkpoint records the values used and not the zeros that asked for
// them.
const (
	DefaultAlpha   = 40
	DefaultCGIters = 3
)

func (c *Config) setDefaults() {
	if c.K <= 0 {
		c.K = 10
	}
	if c.Iterations <= 0 {
		c.Iterations = 5
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Alpha <= 0 {
		c.Alpha = DefaultAlpha
	}
	if c.CGIters <= 0 {
		c.CGIters = DefaultCGIters
	}
	if c.BlockSize > c.K {
		c.BlockSize = c.K
	}
}

// validateMode rejects inconsistent training-mode combinations up front,
// before any workers spawn.
func (c *Config) validateMode() error {
	if c.Solver > SolverCG {
		return fmt.Errorf("host: unknown solver %d", c.Solver)
	}
	if c.Implicit && c.WeightedLambda {
		return fmt.Errorf("host: WeightedLambda applies to explicit ALS-WR only, not implicit mode")
	}
	if c.BlockSize < 0 {
		return fmt.Errorf("host: negative block size %d", c.BlockSize)
	}
	if c.BlockSize > 0 && !c.Implicit {
		return fmt.Errorf("host: block-coordinate updates (iALS++) require implicit mode")
	}
	if c.BlockSize > 0 && c.Solver != SolverCholesky {
		return fmt.Errorf("host: block-coordinate updates solve each b×b subsystem directly; -solver %s cannot be combined with a block size", c.Solver)
	}
	return nil
}

// IterStats records per-half-iteration progress when TrackLoss is on.
type IterStats struct {
	Iteration int     // 1-based full iteration
	Half      string  // "X" or "Y"
	Loss      float64 // regularized loss, Eq. 2
	Elapsed   time.Duration
}

// Result is a trained factorization.
type Result struct {
	X, Y    *linalg.Dense // user (m×k) and item (n×k) factors
	History []IterStats
	Elapsed time.Duration
	// Converged is the iteration early stopping fired at (0 when Tolerance
	// was unset; Iterations when the loop ran to completion).
	Converged int
}

// Predict returns the estimated rating r̂_ui = x_u·y_i.
func (r *Result) Predict(u, i int) float64 {
	return linalg.Dot(r.X.Row(u), r.Y.Row(i))
}

// RMSE evaluates the model on a rating matrix.
func (r *Result) RMSE(on *sparse.CSR) float64 { return metrics.RMSE(on, r.X, r.Y) }

// Train runs ALS (Algorithm 1): X and Y are updated alternately, each side
// solved exactly row-by-row via Cholesky, for Config.Iterations rounds.
func Train(mx *sparse.Matrix, cfg Config) (*Result, error) {
	m, n := mx.Rows(), mx.Cols()
	cfg.setDefaults()
	if mx.NNZ() == 0 {
		return nil, fmt.Errorf("host: empty rating matrix")
	}
	if err := cfg.validateMode(); err != nil {
		return nil, err
	}
	if cfg.StartIteration < 0 {
		return nil, fmt.Errorf("host: negative start iteration %d", cfg.StartIteration)
	}
	if (cfg.ResumeX == nil) != (cfg.ResumeY == nil) {
		return nil, fmt.Errorf("host: only one of ResumeX/ResumeY set")
	}
	if cfg.StartIteration > 0 && cfg.ResumeX == nil {
		return nil, fmt.Errorf("host: StartIteration %d without resume factors", cfg.StartIteration)
	}
	x := linalg.NewDense(m, cfg.K)
	y := InitialY(n, cfg.K, cfg.Seed)
	if cfg.ResumeX != nil {
		if cfg.ResumeX.Rows != m || cfg.ResumeX.Cols != cfg.K ||
			cfg.ResumeY.Rows != n || cfg.ResumeY.Cols != cfg.K {
			return nil, fmt.Errorf("host: resume factors (%dx%d,%dx%d) do not match run (%dx%d,%dx%d)",
				cfg.ResumeX.Rows, cfg.ResumeX.Cols, cfg.ResumeY.Rows, cfg.ResumeY.Cols,
				m, cfg.K, n, cfg.K)
		}
		x = cfg.ResumeX.Clone()
		y = cfg.ResumeY.Clone()
	}

	// The Y update runs the same row-update code on Rᵀ.
	rt := mx.RT()

	pool := newWorkerPool(cfg)
	defer pool.close()

	// Per-side schedules, built once and reused every iteration. The Y half
	// is the X half with the roles swapped.
	names := [2]string{"X", "Y"}
	sides := [2]halfSide{pool.side(mx.R, y, x, true), pool.side(rt, x, y, false)}

	cfg.Obs.SetShape(m, n, mx.NNZ(), pool.workers, VariantLabel(cfg.Flat, cfg.Variant), ModeLabel(cfg.Implicit))
	g := cfg.Guard
	if g != nil {
		g.SetVariant(VariantLabel(cfg.Flat, cfg.Variant))
		// The watchdog's loss floor scales with the objective's natural
		// magnitude: Σr² for the explicit squared error, Σc·p² = nnz + αΣr
		// for the implicit confidence-weighted one.
		var sq float64
		if cfg.Implicit {
			for _, v := range mx.R.Val {
				sq += 1 + float64(cfg.Alpha)*float64(v)
			}
		} else {
			for _, v := range mx.R.Val {
				sq += float64(v) * float64(v)
			}
		}
		g.SetLossScale(sq)
	}
	var terms []float64 // the objective pass's per-row scratch
	if g != nil || cfg.Tolerance > 0 || cfg.TrackLoss {
		terms = make([]float64, max(m, n))
	}
	res := &Result{X: x, Y: y}
	start := time.Now()
	prevLoss := math.Inf(1)
	for it := cfg.StartIteration + 1; it <= cfg.Iterations; it++ {
		var loss float64
		for i, name := range names {
			if err := pool.runHalf(sides[i], it); err != nil {
				return nil, fmt.Errorf("host: iteration %d update %s: %w", it, name, err)
			}
			if cfg.TrackLoss {
				loss = pool.objective(sides[i], sides[1-i], terms)
				res.History = append(res.History, IterStats{
					Iteration: it, Half: name, Loss: loss, Elapsed: time.Since(start),
				})
			}
		}
		// Workers are parked between halves, so the factors are stable from
		// here to the end of the iteration. A chaos blow-up lands now (after
		// the half losses were recorded, mimicking corruption that strikes
		// between iterations), which invalidates the Y half's loss; otherwise
		// the watchdog and early stopping share it, or one fresh evaluation.
		blew := g != nil && g.Chaos.BlowUp(it)
		if blew {
			g.Chaos.CorruptFactors(x.Data)
			// X moved under the Gram the Y half took: judge the corrupted
			// X, not the stale XᵀX.
			pool.grams[gramIdx(false)].fresh = false
		}
		if (g != nil || cfg.Tolerance > 0) && (!cfg.TrackLoss || blew) {
			loss = pool.objective(sides[1], sides[0], terms)
		}
		// The divergence watchdog runs before OnIteration so diverged
		// factors are never checkpointed.
		if g != nil {
			if err := g.CheckIteration(it, x.Data, y.Data, loss); err != nil {
				return nil, fmt.Errorf("host: iteration %d: %w", it, err)
			}
		}
		if cfg.OnIteration != nil {
			if err := cfg.OnIteration(it, x, y, res.History); err != nil {
				return nil, fmt.Errorf("host: iteration %d hook: %w", it, err)
			}
		}
		cfg.Obs.IterDone(it)
		if cfg.Tolerance > 0 {
			res.Converged = it
			if prevLoss-loss < cfg.Tolerance*prevLoss {
				break
			}
			prevLoss = loss
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// VariantLabel names a run's code variant in checkpoints, run reports and
// observability output.
func VariantLabel(flat bool, v variant.Options) string {
	if flat {
		return "flat baseline"
	}
	return v.String()
}

// ModeLabel names a training mode the same way.
func ModeLabel(implicit bool) string {
	if implicit {
		return "implicit"
	}
	return "explicit"
}

// InitialY fills Y with the paper's "small random numbers" initial guess.
// Exported so the simulated-device kernels start from the identical Y and
// the variant-equivalence tests can compare factors across substrates.
func InitialY(n, k int, seed int64) *linalg.Dense {
	rng := rand.New(rand.NewSource(seed))
	y := linalg.NewDense(n, k)
	for i := range y.Data {
		y.Data[i] = rng.Float32() * 0.1
	}
	return y
}

// lptOrder returns the rows of r sorted by descending nonzero count, ties
// broken by ascending row index (a counting sort, so building it is O(m)).
// Visiting rows longest-first approximates LPT scheduling: the expensive
// rows are claimed while every worker is still busy, instead of surfacing
// at the tail where they serialize the half iteration.
func lptOrder(r *sparse.CSR) []int32 {
	m := r.NumRows
	maxDeg := 0
	for u := 0; u < m; u++ {
		if d := r.RowNNZ(u); d > maxDeg {
			maxDeg = d
		}
	}
	start := make([]int, maxDeg+1)
	for u := 0; u < m; u++ {
		start[r.RowNNZ(u)]++
	}
	pos := 0
	for d := maxDeg; d >= 0; d-- {
		n := start[d]
		start[d] = pos
		pos += n
	}
	order := make([]int32, m)
	for u := 0; u < m; u++ {
		d := r.RowNNZ(u)
		order[start[d]] = int32(u)
		start[d]++
	}
	return order
}

// halfSide is what a half iteration keeps from one iteration to the next:
// the side's CSR, the factor pair, and the schedule.
type halfSide struct {
	r          *sparse.CSR
	fixed, out *linalg.Dense
	xHalf      bool    // true for the X half (out is X), false for the Y half
	order      []int32 // LPT permutation; nil = natural order
	chunk      int
}

// halfJob is one pass handed to every worker: a side plus a shared atomic
// cursor the workers claim chunks from. A job completes when all workers
// return from it. With terms nil the pass is a half iteration (every row is
// solved); with terms set it is the objective pass (every row of the side
// just solved writes its share of the objective to terms[row]); with no
// rating matrix at all (r nil) it is the Gram pass, which refills gram from
// fixed, the claims being ranges of chunk of the Gram's pieces.
type halfJob struct {
	halfSide
	iter   int                // 1-based full iteration (guard/chaos addressing)
	gram   *linalg.SharedGram // implicit mode's FᵀF of fixed; nil otherwise
	terms  []float64
	cursor atomic.Int64
	err    atomic.Value
	wg     sync.WaitGroup
}

// factorGram is implicit mode's FᵀF of one factor and whether it still is
// that: whatever writes the factor — the half that solves it, a chaos
// blow-up, a RangeUpdater's caller — clears fresh, and the next half or
// objective to need the Gram recomputes it on the pool (gramOf). Within an
// iteration each factor's Gram is therefore computed once and read twice: by
// the objective that follows the factor's own half, and by the other half.
type factorGram struct {
	*linalg.SharedGram
	fresh bool
}

// gramIdx is where the pool keeps the Gram of the factor a half holds fixed.
func gramIdx(xHalf bool) int {
	if xHalf {
		return 0
	}
	return 1
}

// workerPool owns Config.Workers goroutines and the row kernel they run,
// for the lifetime of one Train call or RangeUpdater. Each worker keeps its
// scratch (Gram matrix, staging buffers) across every half iteration, so
// steady-state row updates allocate nothing; a half iteration costs two
// channel sends per worker instead of a goroutine spawn.
type workerPool struct {
	kernel  *rowKernel
	flat    bool
	workers int
	// What watches the half iterations: the recorder, the live span's
	// context (else nil), and — only when either is set — a slot per worker
	// for its share of the current half, written by that worker alone and
	// read after the rendezvous.
	obs    *obs.TrainRecorder
	trace  context.Context
	shares []obs.WorkerShare
	// grams are implicit mode's shared FᵀF of the two factors, at
	// gramIdx(half that holds the factor fixed); the buffers live here so
	// workers never allocate. Both SharedGrams are nil in explicit mode.
	grams   [2]factorGram
	gramJob halfJob // the Gram pass's job, reused: the workers are done with it when do returns
	jobs    chan *halfJob
	wg      sync.WaitGroup
}

// newWorkerPool expects cfg after setDefaults.
func newWorkerPool(cfg Config) *workerPool {
	p := &workerPool{
		kernel:  newRowKernel(&cfg),
		obs:     cfg.Obs,
		trace:   cfg.liveTrace(),
		flat:    cfg.Flat,
		workers: cfg.Workers,
		jobs:    make(chan *halfJob, cfg.Workers),
	}
	if cfg.Implicit {
		p.grams[0].SharedGram = linalg.NewSharedGram(cfg.K)
		p.grams[1].SharedGram = linalg.NewSharedGram(cfg.K)
	}
	if p.obs != nil || p.trace != nil {
		p.shares = make([]obs.WorkerShare, p.workers)
	}
	p.wg.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		go p.run(w)
	}
	return p
}

func (p *workerPool) close() {
	close(p.jobs)
	p.wg.Wait()
}

// side schedules one side (or row range) r for this pool. Row updates are
// independent, so the visit order and claim size change only balance, never
// results. The flat baseline is W static contiguous blocks in natural
// order. Batched runs claim degree-aware chunks (defaultChunk)
// longest-row-first — except with a single worker, where there is no
// imbalance to fix and the natural order has better locality.
func (p *workerPool) side(r *sparse.CSR, fixed, out *linalg.Dense, xHalf bool) halfSide {
	s := halfSide{r: r, fixed: fixed, out: out, xHalf: xHalf}
	if p.flat {
		s.chunk = max(1, (r.NumRows+p.workers-1)/p.workers)
		return s
	}
	s.chunk = defaultChunk(r.NumRows, r.NNZ(), p.workers)
	if p.workers > 1 {
		s.order = lptOrder(r)
	}
	return s
}

// runHalf solves every row of s against its fixed factor, on implicit mode's
// shared FᵀF of it: the Gram depends only on the fixed factor, so every range
// of the same half sees it identically.
func (p *workerPool) runHalf(s halfSide, iter int) error {
	job := &halfJob{halfSide: s, iter: iter}
	if p.shares != nil {
		return p.doObserved(job)
	}
	job.gram, _ = p.fixedGram(nil, s)
	return p.do(job)
}

// fixedGram is the first step of a half in implicit mode (explicit mode has
// no Gram: nil): the Gram of the factor the half writes goes stale, and the
// Gram of the one it holds fixed is taken fresh or computed.
func (p *workerPool) fixedGram(ctx context.Context, s halfSide) (g *linalg.SharedGram, reused bool) {
	if p.grams[0].SharedGram == nil {
		return nil, false
	}
	p.grams[gramIdx(!s.xHalf)].fresh = false
	return p.gramOf(ctx, &p.grams[gramIdx(s.xHalf)], s.fixed)
}

// gramOf returns fg as the Gram of factor f: as it stands when nothing wrote
// f since it was computed (reused), otherwise recomputed by a Gram pass on
// the workers. No element's sum depends on who computed its piece, so the
// Gram is the serial Compute's bit for bit at any worker count. Under a live
// span in ctx either outcome is a child span "gram".
func (p *workerPool) gramOf(ctx context.Context, fg *factorGram, f *linalg.Dense) (g *linalg.SharedGram, reused bool) {
	var span *rtrace.Span
	if ctx != nil {
		_, span = rtrace.StartChild(ctx, "gram")
	}
	reused = fg.fresh
	if !reused {
		// One claim per worker would read f from memory the fewest times;
		// two leave the faster worker something to take.
		chunk := fg.Pieces()
		if p.workers > 1 {
			chunk = max(1, chunk/(2*p.workers))
		}
		// The pass reuses one job, so a Gram allocates nothing; and it has no
		// row that can fail, so do has no error to return.
		job := &p.gramJob
		job.halfSide, job.gram = halfSide{fixed: f, chunk: chunk}, fg.SharedGram
		job.cursor.Store(0)
		_ = p.do(job)
		fg.Finish()
		fg.fresh = true
	}
	if span != nil {
		span.SetAttr("rows", strconv.Itoa(f.Rows))
		span.SetAttr("workers", strconv.Itoa(p.workers))
		span.SetAttr("reused", strconv.FormatBool(reused))
		span.End()
	}
	return fg.SharedGram, reused
}

// doObserved is runHalf's work for a half iteration somebody watches: the
// half — Gram included — is timed, reported to the recorder, and, under a
// live trace, becomes the span "iter<N>/x" or "iter<N>/y" (the names the
// distributed coordinator uses) carrying the same measurements as
// attributes, the Gram's share of the envelope as shared_gram_ms (next to
// shared_gram_reused when an objective had computed it already).
func (p *workerPool) doObserved(job *halfJob) error {
	half := obs.Half{Name: "Y", Rows: job.r.NumRows, Workers: p.shares}
	if job.xHalf {
		half.Name = "X"
	}
	clear(p.shares)
	ctx := p.trace
	var span *rtrace.Span
	if p.trace != nil {
		ctx, span = rtrace.StartChild(p.trace, "iter"+strconv.Itoa(job.iter)+"/"+strings.ToLower(half.Name))
	}
	start := time.Now()
	var reused bool
	job.gram, reused = p.fixedGram(ctx, job.halfSide)
	gramDur := time.Since(start)
	err := p.do(job)
	half.Dur = time.Since(start)
	p.obs.RecordHalf(&half)
	if span != nil {
		switch {
		case reused: // readers of shared_gram_ms sum it: a reuse cost the half nothing
			span.SetAttr("shared_gram_ms", fmtMS(0))
			span.SetAttr("shared_gram_reused", "true")
		case job.gram != nil:
			span.SetAttr("shared_gram_ms", fmtMS(gramDur))
		}
		span.SetAttr("rows", strconv.Itoa(half.Rows))
		span.SetAttr("nnz", strconv.Itoa(job.r.NNZ()))
		span.SetAttr("rows_per_sec", strconv.FormatFloat(half.RowsPerSec(), 'f', 0, 64))
		for s, d := range half.Stage() {
			if d > 0 {
				span.SetAttr("stage_ms/"+obs.StageNames[s], fmtMS(d))
			}
		}
		for w, sh := range p.shares {
			prefix := "worker" + strconv.Itoa(w) + "."
			span.SetAttr(prefix+"busy_ms", fmtMS(sh.Busy))
			span.SetAttr(prefix+"chunks", strconv.Itoa(sh.Chunks))
			span.SetAttr(prefix+"rows", strconv.Itoa(sh.Rows))
		}
		span.End()
	}
	return err
}

func fmtMS(d time.Duration) string {
	return strconv.FormatFloat(float64(d.Nanoseconds())/1e6, 'f', 3, 64)
}

// do broadcasts one job to every worker and waits for the rendezvous.
func (p *workerPool) do(job *halfJob) error {
	job.wg.Add(p.workers)
	for i := 0; i < p.workers; i++ {
		p.jobs <- job
	}
	job.wg.Wait()
	if err, _ := job.err.Load().(error); err != nil {
		return err
	}
	return nil
}

func (p *workerPool) run(id int) {
	defer p.wg.Done()
	ws := newWorkerState(p.kernel.k)
	ws.timed = p.shares != nil
	for job := range p.jobs {
		t0 := time.Now()
		chunks, rows := p.work(job, ws)
		if ws.timed && job.r != nil && job.terms == nil { // what is watched are half iterations
			// Shares accumulate: the channel does not guarantee one copy of
			// the broadcast job per worker, and one that drains several
			// adds each in.
			sh := &p.shares[id]
			sh.Busy += time.Since(t0)
			sh.Chunks += chunks
			sh.Rows += rows
			for s, d := range ws.stage {
				sh.Stage[s] += d
			}
			ws.stage = obs.StageDur{}
		}
		job.wg.Done()
	}
}

// work drains one job, returning how many chunks this worker claimed and how
// many rows it visited (both zero-cost to count; only read
// when observability is on). Chunks are claimed from the shared cursor
// rather than keyed off the worker id, which keeps the work idempotent
// across however the broadcast job copies land on workers: the channel does
// not guarantee one copy per worker, and a block tied to a starved worker's
// id would be silently skipped.
func (p *workerPool) work(job *halfJob, ws *workerState) (chunks, rows int) {
	if job.r == nil {
		for n := job.gram.Pieces(); ; {
			lo := int(job.cursor.Add(int64(job.chunk))) - job.chunk
			if lo >= n {
				return
			}
			job.gram.ComputePieces(job.fixed, lo, min(lo+job.chunk, n), ws.tile)
		}
	}
	m := job.r.NumRows
	for job.err.Load() == nil {
		base := int(job.cursor.Add(int64(job.chunk))) - job.chunk
		if base >= m {
			return
		}
		chunks++
		end := min(base+job.chunk, m)
		for i := base; i < end; i++ {
			// Bail mid-chunk once any worker has failed the half — the
			// cursor check above only runs between claims, and finishing a
			// chunk (a flat block is m/W rows) after the half was poisoned is
			// wasted and, under guard, soon rolled-back work.
			if job.err.Load() != nil {
				return
			}
			u := i
			if job.order != nil {
				u = int(job.order[i])
			}
			if job.terms != nil {
				job.terms[u] = p.kernel.rowObjective(job, u, ws)
			} else if err := p.kernel.updateRow(job, u, ws); err != nil {
				job.err.CompareAndSwap(nil, err)
				return
			}
			rows++
		}
	}
	return
}
