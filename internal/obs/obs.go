// Package obs is the repo-wide observability core: a dependency-free
// Prometheus-text metrics registry (counters, gauges, histograms, with
// labels), the training run's live recorder (run identity, progress and
// the als_train_* families; timelines belong to internal/rtrace), a strict
// exposition-format validator, a tiny debug HTTP server (/metrics, /runinfo,
// /debug/pprof/*), the HTTP reply helpers the serving processes share, and
// the shared -cpuprofile/-memprofile flag plumbing.
//
// The package exists because the paper's whole tuning methodology
// (Sec. V-C, Fig. 8) is hotspot-guided — measure the S1/S2/S3 stage
// shares, optimize the dominant stage, repeat — and that loop needs the
// real training path to be observable while it runs, not only through
// one-off -cpuprofile captures. Everything here is stdlib-only so any
// layer (host solver, checkpointing, serving) can depend on it without
// cycles or third-party baggage.
//
// Design rules:
//
//   - The disabled path costs nothing: instrumentation hooks are nil
//     checks, and the host row-update hot loop stays zero-alloc (guarded
//     by host.RowUpdateAllocs' regression test).
//   - Recording is cheap and coarse-grained: per half-iteration and per
//     worker-rendezvous, never per row; per-row stage timers touch only a
//     preallocated per-worker accumulator.
//   - Exposition output is strict: the tests hold what WritePrometheus
//     renders, and every live scrape in the smoke lanes, to
//     e2e.ValidateExposition, a parser that shares no code with it.
package obs
