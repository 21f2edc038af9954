// alsload drives a running alsserve with a power-law user distribution (the
// datasets' hallmark skew, via dataset.ZipfSampler) and reports throughput
// and latency percentiles — the serving-side benchmark companion to the
// training-side figures. A fraction of traffic can exercise the fold-in
// path with synthetic cold-start payloads.
//
// With -targets it drives several servers at once — an alsfront frontend,
// or the shard replicas of a fleet directly — running the same worker pool
// against each and reporting per-target and aggregate req/s.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dataset"
)

type modelInfo struct {
	Version   string `json:"version"`
	Users     int    `json:"users"`
	Items     int    `json:"items"`
	K         int    `json:"k"`
	Precision string `json:"precision"`
}

type result struct {
	latencies []time.Duration
	// stamps[i] is when request i completed, as an offset from the run
	// start — the raw material for the -timeline per-second series.
	stamps    []time.Duration
	errStamps []time.Duration
	codes     map[int]int
	errors    int
}

// stats summarizes one target's (or the whole run's) completed requests.
type stats struct {
	Target   string
	Requests int
	Errors   int // transport errors
	RPS      float64
	P50ms    float64
	P95ms    float64
	P99ms    float64
	Maxms    float64
	codes    map[int]int
}

func main() {
	base := flag.String("addr", "http://127.0.0.1:8080", "base URL of a running alsserve")
	targetsFlag := flag.String("targets", "", "comma-separated base URLs (an alsfront, or shard replicas directly) driven concurrently with -concurrency workers each; overrides -addr")
	duration := flag.Duration("duration", 10*time.Second, "how long to drive load")
	concurrency := flag.Int("concurrency", 8, "concurrent client workers per target")
	n := flag.Int("n", 10, "recommendations per request")
	skew := flag.Float64("skew", 0.85, "Zipf exponent of the user distribution")
	seed := flag.Int64("seed", 1, "sampler seed")
	foldinFrac := flag.Float64("foldin", 0, "fraction of requests using the fold-in path")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request client timeout")
	timeline := flag.String("timeline", "", "write a per-second JSONL series ({sec, requests, rps, p50_ms, p99_ms, errors}) to this file — throughput and tail latency over the run's lifetime, aggregated across all targets")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "alsload:", err)
		os.Exit(1)
	}

	targets := []string{*base}
	if *targetsFlag != "" {
		targets = targets[:0]
		for _, t := range strings.Split(*targetsFlag, ",") {
			if t = strings.TrimSpace(t); t != "" {
				targets = append(targets, strings.TrimRight(t, "/"))
			}
		}
		if len(targets) == 0 {
			fail(fmt.Errorf("-targets named no URLs"))
		}
	}

	client := &http.Client{Timeout: *timeout, Transport: &http.Transport{
		MaxIdleConnsPerHost: 2 * *concurrency,
	}}
	infos := make([]*modelInfo, len(targets))
	for i, t := range targets {
		info, err := fetchModel(client, t)
		if err != nil {
			fail(fmt.Errorf("discovering model at %s (is it running?): %w", t, err))
		}
		infos[i] = info
		fmt.Printf("alsload: target %s serving %s: %d users x %d items (k=%d, precision=%s)\n",
			t, info.Version, info.Users, info.Items, info.K, orF32(info.Precision))
	}
	fmt.Printf("alsload: %d workers/target x %d target(s), %v, n=%d, user skew %.2f, fold-in %.0f%%\n",
		*concurrency, len(targets), *duration, *n, *skew, *foldinFrac*100)

	startRun := time.Now()
	deadline := startRun.Add(*duration)
	results := make([][]result, len(targets))
	var wg sync.WaitGroup
	for ti := range targets {
		results[ti] = make([]result, *concurrency)
		for w := 0; w < *concurrency; w++ {
			ti, w := ti, w
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[ti][w] = drive(client, targets[ti], infos[ti], startRun, deadline, driveOpts{
					n: *n, skew: *skew,
					seed:   *seed + int64(ti)*104729 + int64(w)*7919,
					foldin: *foldinFrac,
				})
			}()
		}
	}
	wg.Wait()

	perTarget := make([]stats, len(targets))
	var all []time.Duration
	agg := stats{codes: map[int]int{}}
	for ti, t := range targets {
		var lats []time.Duration
		st := stats{Target: t, codes: map[int]int{}}
		for _, r := range results[ti] {
			lats = append(lats, r.latencies...)
			for c, k := range r.codes {
				st.codes[c] += k
				agg.codes[c] += k
			}
			st.Errors += r.errors
		}
		summarize(&st, lats, duration.Seconds())
		perTarget[ti] = st
		all = append(all, lats...)
		agg.Errors += st.Errors
	}
	if len(all) == 0 {
		fail(fmt.Errorf("no requests completed"))
	}
	summarize(&agg, all, duration.Seconds())

	for _, st := range perTarget {
		if len(targets) > 1 {
			fmt.Printf("\ntarget %s\n", st.Target)
			printStats(st)
		}
	}
	fmt.Printf("\nrequests: %d  transport errors: %d\n", agg.Requests, agg.Errors)
	printCodes(agg.codes)
	fmt.Printf("aggregate throughput: %.0f req/s across %d target(s)\n", agg.RPS, len(targets))
	fmt.Printf("latency p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
		agg.P50ms, agg.P95ms, agg.P99ms, agg.Maxms)

	if *timeline != "" {
		if err := writeTimeline(*timeline, results); err != nil {
			fail(err)
		}
		fmt.Printf("per-second timeline written to %s\n", *timeline)
	}
}

// timelinePoint is one -timeline JSONL line: everything that completed in
// second [Sec, Sec+1) of the run, across all targets and workers.
type timelinePoint struct {
	Sec      int     `json:"sec"`
	Requests int     `json:"requests"`
	RPS      float64 `json:"rps"`
	P50ms    float64 `json:"p50_ms"`
	P99ms    float64 `json:"p99_ms"`
	Errors   int     `json:"errors"`
}

// writeTimeline buckets every request by its completion second and writes
// one JSONL point per second — the time axis the aggregate stats flatten
// away, which is where warmup, cache-fill and degradation episodes show.
func writeTimeline(path string, results [][]result) error {
	bySec := map[int][]time.Duration{}
	errsBySec := map[int]int{}
	last := 0
	for _, rs := range results {
		for _, r := range rs {
			for i, stamp := range r.stamps {
				s := int(stamp / time.Second)
				bySec[s] = append(bySec[s], r.latencies[i])
				if s > last {
					last = s
				}
			}
			for _, stamp := range r.errStamps {
				s := int(stamp / time.Second)
				errsBySec[s]++
				if s > last {
					last = s
				}
			}
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for s := 0; s <= last; s++ {
		lats := bySec[s]
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		pt := timelinePoint{
			Sec: s, Requests: len(lats), RPS: float64(len(lats)),
			Errors: errsBySec[s],
		}
		if len(lats) > 0 {
			pt.P50ms = ms(lats[int(0.50*float64(len(lats)-1))])
			pt.P99ms = ms(lats[int(0.99*float64(len(lats)-1))])
		}
		if err := enc.Encode(pt); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func summarize(st *stats, lats []time.Duration, seconds float64) {
	st.Requests = len(lats)
	if seconds > 0 {
		st.RPS = float64(len(lats)) / seconds
	}
	if len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration { return lats[int(p*float64(len(lats)-1))] }
	st.P50ms, st.P95ms, st.P99ms = ms(pct(0.50)), ms(pct(0.95)), ms(pct(0.99))
	st.Maxms = ms(lats[len(lats)-1])
}

func printStats(st stats) {
	fmt.Printf("  requests: %d  transport errors: %d  throughput: %.0f req/s\n",
		st.Requests, st.Errors, st.RPS)
	fmt.Printf("  latency p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
		st.P50ms, st.P95ms, st.P99ms, st.Maxms)
}

func printCodes(codes map[int]int) {
	keys := make([]int, 0, len(codes))
	for c := range codes {
		keys = append(keys, c)
	}
	sort.Ints(keys)
	for _, c := range keys {
		fmt.Printf("  HTTP %d: %d\n", c, codes[c])
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// orF32 defaults an absent precision (a pre-quantization server) to f32.
func orF32(p string) string {
	if p == "" {
		return "f32"
	}
	return p
}

type driveOpts struct {
	n      int
	skew   float64
	seed   int64
	foldin float64
}

func drive(client *http.Client, base string, info *modelInfo, startRun, deadline time.Time, o driveOpts) result {
	users := dataset.NewZipfSampler(info.Users, o.skew, o.seed)
	rng := rand.New(rand.NewSource(o.seed + 1))
	res := result{codes: map[int]int{}}
	for time.Now().Before(deadline) {
		var (
			resp *http.Response
			err  error
		)
		start := time.Now()
		if rng.Float64() < o.foldin {
			resp, err = client.Post(base+"/v1/foldin", "application/json",
				bytes.NewReader(foldinPayload(rng, info.Items, o.n)))
		} else {
			resp, err = client.Get(fmt.Sprintf("%s/v1/recommend?user=%d&n=%d", base, users.Draw(), o.n))
		}
		if err != nil {
			res.errors++
			res.errStamps = append(res.errStamps, time.Since(startRun))
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done := time.Now()
		res.latencies = append(res.latencies, done.Sub(start))
		res.stamps = append(res.stamps, done.Sub(startRun))
		res.codes[resp.StatusCode]++
	}
	return res
}

// foldinPayload fabricates a cold-start user: 5–25 distinct random items
// with ratings in [1,5].
func foldinPayload(rng *rand.Rand, items, n int) []byte {
	count := 5 + rng.Intn(21)
	if count > items {
		count = items
	}
	seen := map[int32]bool{}
	its := make([]int32, 0, count)
	ratings := make([]float32, 0, count)
	for len(its) < count {
		it := int32(rng.Intn(items))
		if seen[it] {
			continue
		}
		seen[it] = true
		its = append(its, it)
		ratings = append(ratings, float32(1+rng.Intn(5)))
	}
	body, _ := json.Marshal(map[string]any{"items": its, "ratings": ratings, "n": n})
	return body
}

func fetchModel(client *http.Client, base string) (*modelInfo, error) {
	resp, err := client.Get(base + "/v1/model")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("GET /v1/model: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var info modelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, err
	}
	return &info, nil
}
