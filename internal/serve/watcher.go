package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/sparse"
)

// WatcherConfig configures a checkpoint-directory Watcher.
type WatcherConfig struct {
	// Dir is the checkpoint directory written by a training run
	// (alstrain -checkpoint-dir). It may not exist yet; the watcher keeps
	// polling until it appears.
	Dir string
	// Interval is the polling period for Run (default 2s).
	Interval time.Duration
	// FS overrides the filesystem (nil = the real disk); tests inject a
	// checkpoint.MemFS here.
	FS checkpoint.FS
	// Clock overrides time for Run's polling loop (nil = real time);
	// tests drive a checkpoint.FakeClock instead of sleeping.
	Clock checkpoint.Clock
	// Rated optionally enables rated-item exclusion for swapped-in
	// models; it is applied only when its row count matches the
	// checkpoint's user count. With a Transform the watcher keeps only its
	// cut to the slice of the first install, applied to installs of that
	// slice.
	Rated *sparse.CSR
	// Transform, when set, maps the loaded checkpoint model to the view
	// actually swapped in, returning the view plus its item offset and the
	// full catalog size (total 0 = full model). Shard replicas slice out
	// their item range here, so a whole serving fleet can follow a single
	// training run's checkpoint directory and each member hot-swaps only
	// its slice.
	Transform func(*core.Model) (m *core.Model, itemOffset, itemTotal int)
	// OnSwap, when set, is called after each successful hot-swap.
	OnSwap func(*Snapshot)
	// OnReject, when set, is called for each checkpoint file that failed
	// to load (after the rejection metric is incremented).
	OnReject func(path string, err error)
	// MaxRetries bounds the Load attempts for a candidate failing with a
	// transient error — anything that is not checkpoint.ErrCorrupt, e.g.
	// an open raced by a concurrent writer or a flaky network mount —
	// before the candidate is rejected for good (default 5).
	MaxRetries int
	// RetryBackoff is the base delay before re-trying a transiently
	// failing candidate; the delay doubles per attempt with ±50% jitter
	// (default 250ms).
	RetryBackoff time.Duration
}

// Watcher tails a checkpoint directory and hot-swaps the newest valid
// checkpoint into a Server through the ordinary versioned-snapshot path,
// composing training and serving into a live pipeline: a long alstrain
// run checkpoints every iteration, and the serving fleet follows it
// without restarts. A corrupt or torn checkpoint is rejected (counted in
// als_swap_rejected_total), the previous snapshot keeps serving, and the
// watcher falls back to the next-newest candidate.
type Watcher struct {
	srv       *Server
	cfg       WatcherConfig
	installed int                    // iteration of the installed checkpoint
	rejected  map[string]bool        // checkpoint files already found corrupt
	retries   map[string]*retryState // transiently failing candidates backing off
	jitter    *rand.Rand

	// rated is cfg.Rated, or once cut is set its cut to the items
	// [ratedLo, ratedLo+rated.NumCols); unrated is RatedSkipped's answer.
	rated   *sparse.CSR
	cut     bool
	ratedLo int
	unrated string
}

// retryState tracks one transiently failing candidate between polls.
type retryState struct {
	attempts int
	next     time.Time // earliest Clock time for the next attempt
}

// NewWatcher builds a watcher bound to srv. Call Poll for one
// deterministic scan-and-swap pass, or Run for the polling loop.
func NewWatcher(srv *Server, cfg WatcherConfig) *Watcher {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.FS == nil {
		cfg.FS = checkpoint.OS
	}
	if cfg.Clock == nil {
		cfg.Clock = checkpoint.SystemClock
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 5
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 250 * time.Millisecond
	}
	rated := cfg.Rated
	cfg.Rated = nil
	return &Watcher{
		srv: srv, cfg: cfg, rated: rated,
		rejected: make(map[string]bool),
		retries:  make(map[string]*retryState),
		jitter:   rand.New(rand.NewSource(cfg.Clock.Now().UnixNano())),
	}
}

// Poll performs one scan: if the directory holds a checkpoint newer than
// the installed one, the newest loadable candidate is swapped in.
// Candidates failing with checkpoint.ErrCorrupt are rejected immediately
// and never retried — a visible checkpoint is complete, so a bad one
// cannot heal. Any other load error is treated as transient (an open
// raced by a writer, a flaky mount): the candidate backs off with
// doubling jittered delays and is rejected only after MaxRetries
// attempts. Each rejection counts once. Poll reports whether a swap
// happened. It is not safe for concurrent use with itself; Run is the
// single-goroutine driver.
func (w *Watcher) Poll() (bool, error) {
	// The directory may simply not exist yet (training not started): an
	// empty listing, and the loop keeps waiting.
	entries := checkpoint.List(w.cfg.FS, w.cfg.Dir)
	w.pruneRetries(entries)
	for _, c := range entries {
		if c.Iteration <= w.installed {
			break // newest first: nothing further down is newer than what serves
		}
		path := filepath.Join(w.cfg.Dir, c.Name)
		if w.rejected[path] {
			continue
		}
		if rs := w.retries[path]; rs != nil && w.cfg.Clock.Now().Before(rs.next) {
			continue // backing off; an older candidate may still serve
		}
		st, err := checkpoint.Load(w.cfg.FS, path)
		if err != nil {
			if errors.Is(err, checkpoint.ErrCorrupt) {
				w.reject(path, err)
				continue
			}
			rs := w.retries[path]
			if rs == nil {
				rs = &retryState{}
				w.retries[path] = rs
			}
			rs.attempts++
			if rs.attempts >= w.cfg.MaxRetries {
				delete(w.retries, path)
				w.reject(path, err)
				continue
			}
			rs.next = w.cfg.Clock.Now().Add(w.backoff(rs.attempts))
			continue
		}
		delete(w.retries, path)
		// A compressed (format v2) checkpoint already carries quantized item
		// factors; the model keeps them, so the swap reuses the encoding
		// instead of re-quantizing when the serving precision matches.
		model := core.ModelOf(st)
		model.Meta.Version = fmt.Sprintf("ckpt-%d", st.Iteration)
		offset, total := 0, 0
		if w.cfg.Transform != nil {
			model, offset, total = w.cfg.Transform(model)
		}
		sn := w.srv.swapShard(model, w.ratedFor(model, offset), "", offset, total)
		w.srv.Telemetry().SwapInstalled(w.cfg.Clock.Now())
		w.installed = c.Iteration
		if w.cfg.OnSwap != nil {
			w.cfg.OnSwap(sn)
		}
		return true, nil
	}
	return false, nil
}

// ratedFor returns the rated set for installing model, whose Y rows are
// the catalog's items from offset on, or nil, with the reason in
// w.unrated, when the set does not fit it: a checkpoint of another user
// count, or of another slice than the cut's, would exclude the wrong
// items. The first call with a Transform cuts the set and drops the
// full one.
func (w *Watcher) ratedFor(model *core.Model, offset int) *sparse.CSR {
	w.unrated = ""
	if w.rated == nil {
		return nil
	}
	rows := model.Y.Rows
	if w.cfg.Transform != nil && !w.cut {
		w.rated, w.cut, w.ratedLo = w.rated.ColRange(offset, offset+rows), true, offset
	}
	switch {
	case w.rated.NumRows != model.X.Rows:
		w.unrated = fmt.Sprintf("ratings cover %d users, model has %d", w.rated.NumRows, model.X.Rows)
	case w.cut && (offset != w.ratedLo || rows != w.rated.NumCols):
		w.unrated = fmt.Sprintf("ratings were cut to items [%d,%d), model slice is [%d,%d)",
			w.ratedLo, w.ratedLo+w.rated.NumCols, offset, offset+rows)
	default:
		return w.rated
	}
	return nil
}

// RatedSkipped reports why the last installed checkpoint serves without
// the configured rated set, or "" when it serves with it (or none was
// configured). A host calls it from OnSwap.
func (w *Watcher) RatedSkipped() string { return w.unrated }

// reject marks a candidate permanently bad: it is skipped by every later
// poll, counted once in als_swap_rejected_total, and reported to OnReject.
func (w *Watcher) reject(path string, err error) {
	w.rejected[path] = true
	w.srv.Telemetry().SwapRejected()
	if w.cfg.OnReject != nil {
		w.cfg.OnReject(path, err)
	}
}

// backoff returns the delay after the nth failed attempt: RetryBackoff
// doubled per prior attempt, scaled by a jitter in [0.5, 1.5) so a fleet
// of watchers following one training run does not retry in lockstep.
func (w *Watcher) backoff(attempts int) time.Duration {
	d := w.cfg.RetryBackoff << (attempts - 1)
	return time.Duration((0.5 + w.jitter.Float64()) * float64(d))
}

// pruneRetries drops retry state for files no longer in the directory
// (e.g. rotated away by the trainer's keep-last policy), so the map stays
// bounded by the directory size.
func (w *Watcher) pruneRetries(entries []checkpoint.Entry) {
	if len(w.retries) == 0 {
		return
	}
	present := make(map[string]bool, len(entries))
	for _, e := range entries {
		present[filepath.Join(w.cfg.Dir, e.Name)] = true
	}
	for p := range w.retries {
		if !present[p] {
			delete(w.retries, p)
		}
	}
}

// Run polls until ctx is cancelled.
func (w *Watcher) Run(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-w.cfg.Clock.After(w.cfg.Interval):
			w.Poll()
		}
	}
}
