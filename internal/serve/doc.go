// Package serve is the online serving layer over trained ALS models — the
// inference-side counterpart of the paper's training hot loops — as one
// process or as an item-sharded fleet behind one request edge. It provides
//
//   - a top-N scan that runs on its request's goroutine into one size-n
//     min-heap (S1–S3's serving analogue: the per-request hot loop): the
//     float32 item factors Y through an int16 screen and an exact rescore
//     with the linalg dot kernels, quantized snapshots through
//     quant.Ranked's exact norm-pruned scan; the admission queue is the
//     one bound on how many scans run at once;
//   - atomic model hot-swap: immutable versioned Snapshots published through
//     an atomic.Pointer, installed by POST /admin/swap or by a Watcher
//     following a training run's checkpoint directory, so retraining
//     (cmd/alstrain) and serving compose with zero request downtime;
//   - a fold-in path for cold-start users — the ALS X update's normal
//     equations (core.CheckFoldIn, linalg.GramRHSFused, core.SolveFoldIn)
//     over the rated items' rows, which a snapshot loaded at its
//     checkpoint's own quantized precision, holding no float32 Y, decodes
//     from its encoding (Snapshot.itemRows) — and an LRU
//     response cache keyed by (model version, user, n), purged wholesale on
//     hot-swap;
//   - one request middleware (trace span, status code, latency, slow log)
//     that the Server runs behind a bounded admission queue (429 on
//     saturation) and a per-request deadline, with Prometheus-style /metrics;
//   - the fleet: a Replica (alsserve -shard i/N) wraps a Server holding only
//     its static range of Y — /v1/recommend answers over that slice in global
//     item indices, and the watcher's Transform hook slices each
//     checkpoint, so one training run's directory syncs the whole fleet —
//     and a Frontend (cmd/alsfront) that serves the same /v1 API by
//     scatter-gather. The shard hop between them is not HTTP, and it is the
//     only way the frontend reaches a shard: it upgrades a connection from
//     GET /shard/v1/frames and sends recommend, score, partials, purge and
//     info (the snapshot's shape; the probe) requests as internal/framing
//     frames (hop.go has the layouts), one at a time per connection, each
//     admitted by the replica like an HTTP request. Per-shard deadline, one jittered retry of a transiently failed
//     leg (als_shard_retries_total), a merge that keeps metrics.TopK's order
//     (identical to one process scanning the full catalog, ties included),
//     fold-in from summed per-shard Gram/RHS terms through the same
//     core.SolveFoldIn, and degradation to the healthy shards' results
//     (als_shard_partial_total, /readyz 503) when one stays down. Both edges
//     parse, validate and reject a request with the same code.
//
// cmd/alsserve and cmd/alsfront wire the package to HTTP listeners;
// cmd/alsload drives either with a power-law user distribution and reports
// latency percentiles.
package serve
