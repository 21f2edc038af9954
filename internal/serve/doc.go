// Package serve is the online serving layer over trained ALS models: the
// inference-side counterpart of the paper's training hot loops. It provides
//
//   - a sharded top-N scorer that partitions the item factor matrix Y across
//     a bounded worker pool, scores each shard with the linalg dot kernels
//     into a per-shard size-n min-heap, and merges the heaps (S1–S3's
//     serving analogue: the per-request hot loop); quantized snapshots run
//     quant.Ranked's exact norm-pruned scan as one pool task instead;
//   - atomic model hot-swap: immutable versioned Snapshots published through
//     an atomic.Pointer so retraining (cmd/alstrain) and serving compose
//     with zero request downtime;
//   - a fold-in path for cold-start users wrapping core.Model.FoldInUser;
//   - an LRU response cache keyed by (model version, user, n), purged
//     wholesale on hot-swap;
//   - robustness and observability: per-request deadlines, a bounded
//     admission queue with load shedding (429 on saturation), and a
//     Prometheus-style /metrics endpoint (request counts, latency
//     histogram, cache hit rate, in-flight gauge, model version).
//
// cmd/alsserve wires the package to an HTTP listener; cmd/alsload drives it
// with a power-law user distribution and reports latency percentiles.
package serve
