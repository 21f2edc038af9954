# Convenience targets for the ALS reproduction.

GO ?= go

.PHONY: all build test test-short bench ci obs-smoke chaos-smoke dist-smoke fault-smoke quant-smoke implicit-smoke trace-smoke experiments examples kernels serve clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The full gate: formatting, static checks, the package boundary between the
# serving fleet and the BSP trainer (internal/serve must not depend on
# internal/shard; of internal/shard's non-test files only serving.go, the
# aliases bench/ still imports, may import internal/serve or net/http), the
# one-codec rule (outside bench/ only tests may call encoding/binary's
# reflection codec, binary.Write / binary.Read — they keep it as the oracle
# internal/lebin's streaming methods are pinned against; everything that
# lays bytes out goes through internal/lebin), build,
# the race-enabled short test suite (includes the serving layer's hot-swap
# stress test), a full race pass over the concurrency-heavy packages (worker
# pool, hot-swap, checkpoint watcher, the fleet's replicas and frontend
# fan-out — these exercise goroutines the -short lane trims; the fleet tests
# still filed under internal/shard run here by name —
# internal/lebin, whose writer a worker's heartbeat goroutine and its
# training loop share under the wire mutex, internal/quant, whose ranked
# matrix every request reads concurrently,
# internal/metrics, whose Sink and float32 range scan every request
# goes through, and internal/rtrace with internal/obs: the training loop
# ends spans on its own goroutine while /debug/traces and /metrics read
# from the debug server's; no lane runs fuzzing, so the seed corpora of
# FuzzRankedMatchesFullScan, FuzzDot4I8MatchesPortable and
# FuzzScanF32MatchesReference run here and in the -short pass as ordinary
# tests, FuzzRequestDecoders' here and in the -short pass with
# internal/serve, and FuzzApplyMatchesPortable's in the -short pass), the
# three lanes
# that keep the assembly kernels' other binding alive on an amd64 box — the
# int8 serving scan's (internal/quant) and the CG matvec's and shared
# Gram's (internal/linalg): -tags purego compiles and tests the portable
# bodies with everything that trains or serves through them, quant and
# implicit smoke lanes included; the arm64 cross-build — offline, from
# GOROOT — is what a wrong build constraint on the assembly files breaks
# (internal/lebin is vetted there too: every file format and frame is its
# byte order);
# and at GOAMD64=v3, where the compiler fuses multiply-adds, linalg's
# constraint must pick the portable bodies (the identity tests then pass
# trivially, and a kernel bound there by mistake fails them),
# the observability smoke lane (a real 1-iteration alstrain run scraped
# over -debug-addr; fails on unparseable exposition output), the chaos
# smoke lane (a fully poisoned run must converge, expose its recovery
# counters, and be bit-reproducible), the quantized-serving smoke lane
# (f16/i8 serving must track the f32 ranking), the implicit-feedback smoke
# lane (a real implicit alstrain run through the CG and iALS++ fast paths
# with a recall@10 floor and per-mode stage metrics), the trace smoke lane
# (a fully-sampled 2-shard fleet whose /debug/traces must export Chrome
# trace JSON with a shard hop child under every frontend root span), the
# fault smoke lane (SIGKILL a worker mid-iteration and still match the
# clean run's bytes; graceful SIGTERM with a resumable checkpoint; no
# orphans after a coordinator SIGKILL), a one-shot bench smoke so
# benchmark code cannot rot unnoticed, and the pipeline benchmark's own
# module (bench/: unit tests plus a toy-size smoke of both workloads).
ci:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	@if $(GO) list -deps ./internal/serve | grep -qx repro/internal/shard; then \
		echo "internal/serve must not depend on internal/shard"; exit 1; \
	fi
	@trainer=$$(ls internal/shard/*.go | grep -v -e '_test\.go$$' -e '/serving\.go$$'); \
	if grep -lE '"(repro/internal/serve|net/http)"' $$trainer; then \
		echo "internal/shard is the BSP trainer: only serving.go may import internal/serve or net/http"; exit 1; \
	fi
	@codecs=$$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs grep -lE 'binary\.(Write|Read)\(' || true); \
	if [ -n "$$codecs" ]; then \
		echo "binary.Write/binary.Read outside tests (use internal/lebin):"; echo "$$codecs"; exit 1; \
	fi
	$(GO) build ./...
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/checkpoint ./internal/core ./internal/host ./internal/lebin ./internal/metrics ./internal/obs ./internal/quant ./internal/rtrace ./internal/serve ./internal/solvers
	$(GO) test -race -run 'TestScatterGather|TestFoldIn|TestFrontend|TestTimedStatusCodes|TestRequestBodyLimits|TestWatcherShardSync' ./internal/shard
	$(GO) test -tags purego ./internal/quant ./internal/serve ./internal/linalg ./internal/host ./internal/solvers ./internal/core
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/quant ./internal/linalg ./internal/lebin
	GOAMD64=v3 $(GO) build ./... && GOAMD64=v3 $(GO) test ./internal/linalg
	$(MAKE) obs-smoke
	$(MAKE) chaos-smoke
	$(MAKE) dist-smoke
	$(MAKE) fault-smoke
	$(MAKE) quant-smoke
	$(MAKE) implicit-smoke
	$(MAKE) trace-smoke
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) test -C bench ./...

# Observability smoke: build alstrain, run one training iteration with
# -debug-addr, scrape live /metrics, /runinfo and /debug/traces, and
# validate the Prometheus exposition text plus the Chrome trace and JSONL
# exports; then a -workers 2 run and a single-process run must each export a
# trace holding every half iteration through the one exporter.
obs-smoke:
	$(GO) test -run TestAlstrainDebugSmoke -count=1 ./internal/obs

# Chaos smoke: build alstrain, train through a fully poisoned run (NaN/Inf/
# huge ratings, zeroed Gram diagonals, a forced solver failure, a loss
# blow-up) and require exit 0, RMSE within 10% of a clean run, non-zero
# guard counters on /metrics, bit-identical repeat runs, and a fast typed
# failure under -strict-numerics.
chaos-smoke:
	$(GO) test -run TestAlstrainChaosSmoke -count=1 ./internal/guard

# Quantized-serving smoke: through the real binaries, train a tiny preset
# model and serve it at f32, f16 and i8 (alsserve -precision); each
# quantized server's top-10 must overlap the f32 ranking by >= 0.9 on
# average, /v1/model must report the precision, and /metrics must pass the
# strict exposition parser with the precision and quantization-error gauges.
quant-smoke:
	$(GO) test -run TestQuantSmoke -count=1 ./internal/quant

# Implicit-feedback smoke: build alstrain, train the YMR4 preset in
# implicit mode through the CG solver (-solver cg) and the iALS++ block
# updates (-block-size), and require held-out recall@10 above the floor
# plus a valid /metrics exposition whose stage seconds are attributed to
# mode="implicit" (s2/s3 for CG, the fused s1+s2 for block sweeps).
implicit-smoke:
	$(GO) test -run TestImplicitSmoke -count=1 ./internal/solvers

# Distributed smoke: through the real binaries, train a tiny preset with
# -workers 2 and require the model byte-identical to single-process, then
# stand up two alsserve shard replicas plus an alsfront frontend, serve a
# merged recommendation, and validate the frontend's /metrics exposition.
# All processes are killed by test cleanup even on failure — no orphans.
dist-smoke:
	$(GO) test -run TestDistSmoke -count=1 ./internal/shard

# Fault smoke: through the real alstrain binary, SIGKILL a worker
# mid-iteration and require the run to finish by respawning it with the
# model byte-identical to a clean run and a nonzero respawn counter on
# /metrics; SIGTERM the coordinator and require a resumable checkpoint,
# exit code 3, no orphan workers, and a -resume rerun matching the clean
# bytes; SIGKILL the coordinator and require every worker to self-terminate.
fault-smoke:
	$(GO) test -run TestFaultSmoke -count=1 ./internal/shard

# Trace smoke: through the real binaries, boot two alsserve shard replicas
# behind an alsfront sampling every request (-trace-sample 1.0), drive
# recommendations, and require /debug/traces to serve well-formed Chrome
# trace JSON in which every frontend root span holds at least one shard hop
# child inside its time envelope, with the same trace IDs retrievable from
# the /debug/slowest flight recorder.
trace-smoke:
	$(GO) test -run TestTraceSmoke -count=1 ./internal/shard

bench:
	$(GO) test -bench=. -benchmem ./...

# Reproduce every table and figure of the paper (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/alsbench -experiment all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/movierecs
	$(GO) run ./examples/crossplatform
	$(GO) run ./examples/tuning
	$(GO) run ./examples/implicit
	$(GO) run ./examples/coldstart

# Train a small preset model and serve it (see README "Serving").
serve:
	$(GO) run ./cmd/alstrain -preset MVLE -scale 0.02 -iters 8 -out /tmp/als-model.bin
	$(GO) run ./cmd/alsserve -model /tmp/als-model.bin

# Emit the OpenCL C sources for real hardware.
kernels:
	$(GO) run ./cmd/alsclgen -k 10 -group-size 32

clean:
	$(GO) clean ./...
