// alsserve serves top-N and fold-in recommendations from a model trained by
// alstrain, with atomic hot-swap (POST /admin/swap) so retraining and
// serving compose without downtime. With -watch it follows a training
// run's checkpoint directory (alstrain -checkpoint-dir) and hot-swaps each
// new checkpoint in as it lands, rejecting corrupt or torn files while the
// previous snapshot keeps serving. Endpoints:
//
//	GET  /v1/recommend?user=U&n=N   top-N unrated items for a known user
//	POST /v1/foldin                 fold a cold-start user's ratings in, top-N
//	POST /admin/swap                load a new model file and swap atomically
//	GET  /v1/model                  live model identity and dimensions
//	GET  /metrics                   Prometheus metrics
//	GET  /healthz                   liveness (503 until a model is loaded)
//
// With -debug-addr a second listener adds /debug/pprof, /healthz
// (process liveness) and /readyz (model installed, and with
// -max-staleness the watched checkpoint is fresh enough).
//
// With -shard i/N the process becomes shard replica i of an N-way fleet:
// it keeps only its static range of the item factors, and of the -ratings
// rated set only those items' columns, answers
// /v1/recommend over that slice (global item indices preserved), and adds
// GET /shard/v1/frames, which the alsfront scatter-gather frontend upgrades
// to persistent connections carrying all it asks of a shard — recommend,
// score, partials, purge and its probe, info — as CRC-checked frames. An
// info frame is answered 503 while -debug-addr's /readyz would fail.
// Fold-in requests belong on the frontend and are rejected with 501
// here. -watch composes: each shard watches the same checkpoint directory
// and hot-swaps only its slice.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/rtrace"
	"repro/internal/serve"
	"repro/internal/sparse"
)

func main() {
	modelPath := flag.String("model", "", "model checkpoint written by alstrain -out (required)")
	ratings := flag.String("ratings", "", "training rating file for rated-item exclusion (optional)")
	oneBased := flag.Bool("one-based", true, "IDs in the rating file start at 1")
	version := flag.String("version", "", "version label for the initial model (default: model meta, then v<seq>)")
	addr := flag.String("addr", ":8080", "listen address")
	queue := flag.Int("queue", 64, "max concurrent requests before shedding with 429")
	timeout := flag.Duration("timeout", 2*time.Second, "per-request deadline")
	cacheSize := flag.Int("cache", 1024, "response cache entries (negative disables)")
	maxN := flag.Int("max-n", 100, "largest accepted n per request")
	watch := flag.String("watch", "", "checkpoint directory to follow: the newest valid checkpoint is hot-swapped in as training writes it (-model becomes optional)")
	watchInterval := flag.Duration("watch-interval", 2*time.Second, "poll period for -watch")
	debugAddr := flag.String("debug-addr", "", "serve the same metrics plus process health, /healthz, /readyz and /debug/pprof on a second address (keeps profiling off the public listener)")
	maxStale := flag.Duration("max-staleness", 0, "readiness bound for -debug-addr's /readyz and, with -shard, for the info frames alsfront probes with: fail once the last checkpoint installed by -watch is older than this (0 disables the age check)")
	shardSpec := flag.String("shard", "", "serve as shard i/N of an item-partitioned fleet (e.g. 0/3): only rows [i*items/N, (i+1)*items/N) of the item factors, and those items' ratings from -ratings, are kept, and alsfront's endpoint is enabled: /shard/v1/frames, which upgrades a connection to the fleet's frame protocol on this same listener")
	precision := flag.String("precision", "f32", "scoring precision for the item factors: f32, f16 or i8; quantized precisions compress each swapped-in model once per swap and score with the fused dequantizing kernels (fold-in still solves in float32)")
	traceSample := flag.Float64("trace-sample", 0, "head-sample this fraction of requests into per-request span traces (0 disables tracing entirely; inbound traceparent headers and shard hop frames always continue a sampled trace); browse them at -debug-addr's /debug/traces and /debug/slowest")
	slowLog := flag.Duration("slow-log", 0, "log requests at or above this duration with their trace ID (0 disables)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "alsserve:", err)
		os.Exit(1)
	}
	if *modelPath == "" && *watch == "" {
		fail(fmt.Errorf("need -model or -watch"))
	}

	prec, err := quant.Parse(*precision)
	if err != nil {
		fail(err)
	}

	var tracer *rtrace.Tracer
	if *traceSample > 0 {
		tracer = rtrace.New(rtrace.Config{Sample: *traceSample, Process: "alsserve"})
	}
	srv := serve.New(serve.Config{
		Queue: *queue, Timeout: *timeout,
		CacheSize: *cacheSize, MaxN: *maxN,
		Tracer: tracer, SlowLog: *slowLog,
	})
	tracer.Register(srv.Telemetry().Registry())
	srv.SetPrecision(prec)
	var rep *serve.Replica
	if *shardSpec != "" {
		idx, of, err := serve.ParseSpec(*shardSpec)
		if err != nil {
			fail(err)
		}
		rep, err = serve.NewReplica(srv, serve.ReplicaConfig{
			Index: idx, Count: of, MaxStaleness: *maxStale,
		})
		if err != nil {
			fail(err)
		}
	}
	if *debugAddr != "" {
		dbg, err := rtrace.ServeDebug(*debugAddr, tracer, obs.DebugConfig{
			Registry: srv.Telemetry().Registry(),
			Ready:    serve.Readiness(srv, *maxStale, nil),
		})
		if err != nil {
			fail(err)
		}
		defer dbg.Close()
	}
	var rated *sparse.CSR // the -model file's rated set, aligned to its rows
	if *modelPath != "" {
		m, r, err := serve.LoadSnapshotFiles(*modelPath, *ratings, *oneBased)
		if err != nil {
			fail(err)
		}
		rated = r
		if rated != nil {
			dataset.ReleaseLoad() // the parse is garbage: a shard's cut reuses its pages
		}
		if rep != nil {
			sn := rep.Swap(m, rated, *version)
			fmt.Printf("alsserve: model %s (seq %d): shard %s holds items [%d,%d) of %d, %d users, k=%d\n",
				sn.Version, sn.Seq, *shardSpec, sn.ItemOffset, sn.ItemOffset+sn.Items, sn.ItemTotal, m.X.Rows, m.K)
		} else {
			sn := srv.Swap(m, rated, *version)
			fmt.Printf("alsserve: model %s (seq %d): %d users x %d items, k=%d, precision=%s kernel=%s\n",
				sn.Version, sn.Seq, m.X.Rows, m.Y.Rows, m.K, sn.Precision, quant.KernelName())
		}
	}

	handler := srv.Handler()
	if rep != nil {
		handler = rep.Handler()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *watch != "" {
		var w *serve.Watcher
		wcfg := serve.WatcherConfig{
			Dir: *watch, Interval: *watchInterval,
			OnSwap: func(sn *serve.Snapshot) {
				fmt.Printf("alsserve: swapped in %s (seq %d) from %s\n", sn.Version, sn.Seq, *watch)
				if *ratings != "" && sn.Rated == nil {
					fmt.Fprintf(os.Stderr, "alsserve: -ratings not applied to %s: %s\n", sn.Version, w.RatedSkipped())
				}
			},
			OnReject: func(path string, err error) {
				fmt.Fprintf(os.Stderr, "alsserve: rejected checkpoint %s: %v\n", path, err)
			},
		}
		if rep != nil {
			// Shard-sync: every replica watches the same checkpoint
			// directory and installs only its item slice of each model.
			wcfg.Transform = rep.Transform
		}
		if *ratings != "" {
			// Rated-item exclusion for watched checkpoints, which carry dense
			// indices: a -model file's ratings are already aligned to its
			// dense rows, the same index space; otherwise load them densely.
			wcfg.Rated = rated
			if rated == nil {
				coo, _, err := dataset.ReadRatings(*ratings, *oneBased)
				if err != nil {
					fail(err)
				}
				if wcfg.Rated, err = sparse.NewCSR(coo); err != nil {
					fail(err)
				}
				dataset.ReleaseLoad()
			}
		}
		w = serve.NewWatcher(srv, wcfg)
		if _, err := w.Poll(); err != nil {
			fail(err)
		}
		go w.Run(ctx)
		fmt.Printf("alsserve: watching %s every %s\n", *watch, *watchInterval)
	}
	// Once the first snapshot is in, a shard's full catalog (ratings and
	// factors) is garbage too. The earlier calls, as a rating parse ends,
	// let a shard's cut and Y copy reuse the parse's pages: its start-up
	// peak on the fleet2 file is 32.8 MB with them, 38.5 MB without.
	dataset.ReleaseLoad()
	err = serve.ListenAndServe(ctx, "alsserve", *addr, handler, "")
	if rep != nil {
		// Upgraded frame connections outlive the listener's shutdown: end
		// them, and the requests on them.
		rep.Close()
	}
	if err != nil {
		fail(err)
	}
}
