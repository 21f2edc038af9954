// Package serve is the online serving layer over trained ALS models — the
// inference-side counterpart of the paper's training hot loops — as one
// process or as an item-sharded fleet behind one request edge. It provides
//
//   - a top-N scorer that partitions the item factor matrix Y across a
//     bounded worker pool, scores each range with the linalg dot kernels into
//     a per-range size-n min-heap, and merges the heaps (S1–S3's serving
//     analogue: the per-request hot loop); quantized snapshots run
//     quant.Ranked's exact norm-pruned scan as one pool task instead;
//   - atomic model hot-swap: immutable versioned Snapshots published through
//     an atomic.Pointer, installed by POST /admin/swap or by a Watcher
//     following a training run's checkpoint directory, so retraining
//     (cmd/alstrain) and serving compose with zero request downtime;
//   - a fold-in path for cold-start users over core.Model.FoldInUser, and an
//     LRU response cache keyed by (model version, user, n), purged wholesale
//     on hot-swap;
//   - one request middleware (trace span, status code, latency, slow log)
//     that the Server runs behind a bounded admission queue (429 on
//     saturation) and a per-request deadline, with Prometheus-style /metrics;
//   - the fleet: a Replica (alsserve -shard i/N) wraps a Server holding only
//     its static range of Y — /v1/recommend answers over that slice in global
//     item indices, GET /shard/v1/info describes the slice, and the
//     watcher's Transform hook slices each checkpoint, so one training run's
//     directory syncs the whole fleet — and a Frontend (cmd/alsfront) that
//     serves the same /v1 API by scatter-gather. The shard hop between them
//     is not HTTP: the frontend upgrades a connection from GET
//     /shard/v1/frames and sends recommend, score, partials and purge
//     requests as internal/framing frames (hop.go has the layouts), one at a
//     time per connection, each admitted by the replica like an HTTP
//     request. Per-shard deadline, one jittered retry of a transiently failed
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
