// alsfront is the scatter-gather frontend for a fleet of alsserve shard
// replicas (alsserve -shard i/N). It fans each request out to every shard
// — as frames on persistent connections it upgrades from each replica's
// GET /shard/v1/frames — with a per-shard deadline, merges the partial top-N heaps into the exact
// single-process ranking, and degrades to the healthy shards' merged
// results when a shard is down or slow (flagged in the response and
// counted in als_shard_partial_total). Endpoints:
//
//	GET  /v1/recommend?user=U&n=N   merged top-N across all shards
//	POST /v1/foldin                 distributed fold-in: partial normal
//	                                equations gathered from every shard,
//	                                solved once, scored across the fleet
//	GET  /v1/model                  aggregated model identity
//	GET  /metrics                   frontend + fan-out Prometheus metrics
//	GET  /healthz                   process liveness
//	GET  /readyz                    503 while any shard is down
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/rtrace"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8070", "listen address")
	shards := flag.String("shards", "", "comma-separated shard replica base URLs in shard order, e.g. http://127.0.0.1:8081,http://127.0.0.1:8082 (required)")
	shardTimeout := flag.Duration("shard-timeout", time.Second, "per-shard deadline for one fan-out leg; a shard that misses it degrades the response to the remaining shards")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "background health-check period")
	maxN := flag.Int("max-n", 100, "largest accepted n per request")
	maxFoldIn := flag.Int("max-foldin-items", 10000, "largest accepted fold-in rating count")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz, /readyz, /debug/pprof (and, with -trace-sample, /debug/traces and /debug/slowest) on a second address")
	traceSample := flag.Float64("trace-sample", 0, "head-sample this fraction of requests into span traces: one root per request with a child per shard hop, propagated to the shards in each hop's request frame (0 disables)")
	slowLog := flag.Duration("slow-log", 0, "log requests at or above this duration with their trace ID (0 disables)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "alsfront:", err)
		os.Exit(1)
	}
	var urls []string
	for _, s := range strings.Split(*shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			urls = append(urls, strings.TrimRight(s, "/"))
		}
	}
	if len(urls) == 0 {
		fail(fmt.Errorf("need -shards with at least one replica URL"))
	}

	var tracer *rtrace.Tracer
	if *traceSample > 0 {
		tracer = rtrace.New(rtrace.Config{Sample: *traceSample, Process: "alsfront"})
	}
	front, err := serve.NewFrontend(serve.FrontendConfig{
		Shards:         urls,
		ShardTimeout:   *shardTimeout,
		ProbeInterval:  *probeInterval,
		MaxN:           *maxN,
		MaxFoldInItems: *maxFoldIn,
		Tracer:         tracer,
		SlowLog:        *slowLog,
	})
	if err != nil {
		fail(err)
	}
	if *debugAddr != "" {
		dbg, err := rtrace.ServeDebug(*debugAddr, tracer, obs.DebugConfig{Registry: front.Registry(), Ready: front.Ready})
		if err != nil {
			fail(err)
		}
		defer dbg.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go front.Run(ctx)

	detail := fmt.Sprintf(", fanning out to %d shard(s)", len(urls))
	for i, u := range urls {
		detail += fmt.Sprintf("\nalsfront: shard %d -> %s", i, u)
	}
	err = serve.ListenAndServe(ctx, "alsfront", *addr, front.Handler(), detail)
	front.Close()
	if err != nil {
		fail(err)
	}
}
