# Convenience targets for the ALS reproduction.

GO ?= go

.PHONY: all build test test-short bench ci layout-check fuzz-smoke smoke obs-smoke chaos-smoke dist-smoke fault-smoke quant-smoke implicit-smoke trace-smoke experiments examples serve clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The full gate; DESIGN.md ("CI lanes") tables each lane's command and what
# only it catches. In order: the static guards (gofmt, vet, the serve/shard
# boundary both ways and the hop's one frame layout and one transport, one
# reader of float item rows in serve, one codec, one byte decoder, one process
# harness, a simulator that imports no arithmetic, a trainer that holds no
# transpose of R, VZEROUPPER before every RET of a function that names a YMM
# register), build, the link check (TestEveryProductFuncLinks, which
# -short skips: every func with a body under internal/ links into a command
# or bench/, unless internal/e2e/testdata/unlinked.allow names its file, and
# every entry there covers such a func), the race passes, the lanes that keep the assembly kernels' other
# bindings alive (purego, arm64, GOAMD64=v3), the check that every assembly kernel sits on
# a cache line whatever the link order (two -randlayout seeds), the smoke lanes
# through the real binaries, the seven examples run to exit 0, every fuzz
# target for 10 s, the bench smokes
# (every benchmark once, then a few at -cpu 1,2: the two that split their
# work over goroutines, and the serving scan and shard hop as
# GOMAXPROCS-invariance smokes).
ci:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	@deps=$$($(GO) list -deps ./internal/serve); \
	if echo "$$deps" | grep -q '^repro/internal/shard'; then \
		echo "internal/serve must not depend on internal/shard/..."; exit 1; \
	fi; \
	if ! echo "$$deps" | grep -qx repro/internal/framing; then \
		echo "internal/serve must speak the shard hop through repro/internal/framing"; exit 1; \
	fi; \
	clients=$$(ls internal/serve/*.go | grep -v '_test\.go$$' | xargs grep -lE 'http\.(Client|DefaultClient|Transport|NewRequest|Get\(|Post\(|PostForm\(|Head\()' || true); \
	if [ -n "$$clients" ]; then \
		echo "internal/serve reaches a shard only through the hop's frames, never an HTTP client:"; echo "$$clients"; exit 1; \
	fi
	@rows=$$(awk '/^func /{fn=$$0} /\.Y\.(Data|Row\()/ && !/^[[:space:]]*\/\// {print FILENAME":"FNR": "fn}' $$(ls internal/serve/*.go | grep -v '_test\.go$$') | grep -vE ': func (\(sn \*Snapshot\) itemRows|sliceModel)\(' || true); \
	if [ -n "$$rows" ]; then \
		echo "internal/serve reads float item rows through Snapshot.itemRows alone (sliceModel cuts a loaded model): a quantized snapshot may hold no Y"; echo "$$rows"; exit 1; \
	fi
	@loads=$$(ls internal/serve/*.go | grep -v '_test\.go$$' | xargs grep -nE 'checkpoint\.(Load|Decode)\(' || true); \
	if [ -n "$$loads" ]; then \
		echo "internal/serve loads a checkpoint at the precision it serves, through checkpoint.LoadAt alone:"; echo "$$loads"; exit 1; \
	fi
	@trainer=$$(ls internal/shard/*.go | grep -v -e '_test\.go$$' -e '/serving\.go$$'); \
	if grep -lE '"(repro/internal/serve|net/http)"' $$trainer; then \
		echo "internal/shard is the BSP trainer: only serving.go may import internal/serve or net/http"; exit 1; \
	fi
	@csc=$$(find internal/shard -name '*.go' -not -name '*_test.go' | xargs grep -nE '\.RT\(\)|ToCSC|sparse\.CSC' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true); \
	if [ -n "$$csc" ]; then \
		echo "internal/shard keeps R once, as a CSR: a rank's rows of R^T stream out of R's columns (writeColumns), never out of a transposed copy:"; echo "$$csc"; exit 1; \
	fi
	@fleet=$$(find internal/shard -name '*_test.go' | xargs grep -l '"repro/internal/serve"' || true); \
	if [ -n "$$fleet" ]; then \
		echo "the fleet's tests live in internal/serve; no internal/shard test may import it:"; echo "$$fleet"; exit 1; \
	fi
	@codecs=$$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs grep -lE 'binary\.(Write|Read)\(' || true); \
	if [ -n "$$codecs" ]; then \
		echo "binary.Write/binary.Read outside tests (use internal/lebin):"; echo "$$codecs"; exit 1; \
	fi
	@decoders=$$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' -not -path './internal/lebin/*' -not -path './internal/framing/*' | xargs grep -lE 'binary\.LittleEndian\.Uint(16|32|64)\(|binary\.(Uvarint|Varint)\(' || true); \
	if [ -n "$$decoders" ]; then \
		echo "bytes decoded outside internal/lebin and internal/framing (use lebin.Reader, lebin.Payload or lebin.UvarintAt):"; echo "$$decoders"; exit 1; \
	fi
	@harness=$$(find . -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' -not -path './internal/e2e/*' | xargs grep -l 'exec.Command("go"' || true); \
	if [ -n "$$harness" ]; then \
		echo 'exec.Command("go" in a test outside internal/e2e (use e2e.Build):'; echo "$$harness"; exit 1; \
	fi
	@arith=$$($(GO) list -deps ./internal/kernels ./internal/sim ./internal/cluster ./internal/baseline ./internal/tuner | grep -xE 'repro/internal/(host|linalg)' || true); \
	if [ -n "$$arith" ]; then \
		echo "the simulator returns a clock and nothing else; internal/{kernels,sim,cluster,baseline,tuner} must not depend on:"; echo "$$arith"; exit 1; \
	fi
	@vz=$$(awk 'function flush() { if (usesY) for (i = 0; i < n; i++) print bad[i]; usesY = n = 0 } \
		FNR == 1 || /^#define/ { flush(); fn = "" } /^TEXT/ { flush(); fn = $$2; sub(/,$$/, "", fn); prev = "" } \
		fn != "" { sub(/\/\/.*/, ""); if ($$0 ~ /(^|[^A-Za-z0-9_])Y([0-9]|1[0-5])([^0-9]|$$)/) usesY = 1; \
			if ($$1 == "RET" && prev != "VZEROUPPER") bad[n++] = FILENAME ":" FNR ": " fn; if (NF) prev = $$1 } \
		END { flush() }' internal/linalg/*_amd64.s); \
	if [ -n "$$vz" ]; then \
		echo "every RET of a function that names a Y register follows VZEROUPPER (SSE code after it would pay for the dirty upper halves):"; echo "$$vz"; exit 1; \
	fi
	$(GO) build ./...
	$(GO) test -run '^TestEveryProductFuncLinks$$' -count=1 ./internal/e2e
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/checkpoint ./internal/core ./internal/e2e ./internal/host ./internal/lebin ./internal/metrics ./internal/obs ./internal/quant ./internal/rtrace ./internal/serve ./internal/shard ./internal/solvers
	$(GO) test -tags purego ./internal/quant ./internal/serve ./internal/metrics ./internal/linalg ./internal/host ./internal/solvers ./internal/core
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/quant ./internal/linalg ./internal/lebin
	GOAMD64=v3 $(GO) build ./... && GOAMD64=v3 $(GO) test ./internal/linalg ./internal/quant ./internal/metrics
	$(MAKE) layout-check
	$(MAKE) smoke
	$(MAKE) examples
	$(MAKE) fuzz-smoke
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) test -run '^$$' -bench 'SharedGramCompute|EncodeDense|RowScan' -benchtime 1x -cpu 1,2 ./internal/linalg ./internal/quant
	$(GO) test -run '^$$' -bench 'TopN/sharded/k32' -benchtime 1x -cpu 1,2 .
	$(GO) test -run '^$$' -bench 'ShardHop' -benchtime 1x -cpu 1,2 ./internal/serve
	$(GO) vet -C bench ./... && $(GO) build -C bench -o /dev/null .
	$(GO) test -C bench ./...

# Every assembly kernel (linalg's eight, quant's one) on a cache line under
# two link orders: Go's linker aligns text to 32 bytes, and which half of a
# line a hot loop starts in has been worth 6-9 % of a training run
# (internal/linalg/wide_amd64.s). alstrain must link the CG matvec's two,
# gemvWideAVX and rank1WideAVX; alsserve the serving scans' three: the
# float32 scan's exact dot8F32SSE2 and its int16 screen screen8I16SSE2, and
# the int8 scan's blocksI8SSE2.
layout-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; for seed in 1 2; do for cmd in alstrain alsserve; do \
		$(GO) build -ldflags=-randlayout=$$seed -o $$tmp/$$cmd ./cmd/$$cmd || exit 1; \
		$(GO) tool nm $$tmp/$$cmd | grep -E ' T repro/internal/(linalg|quant)\..*(SSE2|AVX)(\.abi0)?$$' > $$tmp/kernels; \
		[ -s $$tmp/kernels ] || { echo "no *SSE2 or *AVX text symbol in $$cmd"; exit 1; }; \
		case $$cmd in alstrain) want="linalg.gemvWideAVX linalg.rank1WideAVX";; \
		*) want="linalg.dot8F32SSE2 linalg.screen8I16SSE2 quant.blocksI8SSE2";; esac; \
		for k in $$want; do \
			grep -q "$$k" $$tmp/kernels || { echo "$$cmd -randlayout=$$seed does not link $$k"; exit 1; }; \
		done; \
		while read -r addr _ name; do \
			if [ $$((0x$$addr % 64)) -ne 0 ]; then \
				echo "$$cmd -randlayout=$$seed: $$name at 0x$$addr is not on a cache line (PCALIGN \$$64 its hot loop: internal/linalg/wide_amd64.s)"; exit 1; \
			fi; \
		done < $$tmp/kernels; \
	done; done

# Every Fuzz* target in the tree, 10 s each under a 512 MiB soft memory
# limit (CI otherwise runs only their seeds). The decoder targets assert
# their allocation bound, so a finding fails by that assertion: GOMEMLIMIT
# does not stop a lazily paged make.
fuzz-smoke:
	@for f in $$(grep -l '^func Fuzz' $$(find . -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*')); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "fuzz-smoke: $$t in $$(dirname $$f)"; \
			GOMEMLIMIT=512MiB $(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime 10s ./$$(dirname $$f) || exit 1; \
		done; \
	done

# Every smoke lane: the tests that drive the real binaries through
# internal/e2e (DESIGN.md "CI lanes" says what each one pins). The seven
# names below it run one lane each.
smoke:
	$(GO) test -run 'Smoke|TestServedEqualsOffline' -count=1 ./internal/obs ./internal/guard ./internal/quant ./internal/solvers ./internal/serve ./internal/shard

obs-smoke:
	$(GO) test -run TestAlstrainDebugSmoke -count=1 ./internal/obs
chaos-smoke:
	$(GO) test -run TestAlstrainChaosSmoke -count=1 ./internal/guard
quant-smoke:
	$(GO) test -run TestQuantSmoke -count=1 ./internal/quant
implicit-smoke:
	$(GO) test -run TestImplicitSmoke -count=1 ./internal/solvers
dist-smoke:
	$(GO) test -run TestDistSmoke -count=1 ./internal/shard
fault-smoke:
	$(GO) test -run TestFaultSmoke -count=1 ./internal/shard
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
	$(GO) run ./examples/multigpu

# Train a small preset model and serve it (see README "Serving").
serve:
	$(GO) run ./cmd/alstrain -preset MVLE -scale 0.02 -iters 8 -out /tmp/als-model.bin
	$(GO) run ./cmd/alsserve -model /tmp/als-model.bin

clean:
	$(GO) clean ./...
