package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/serve"
)

// fleet is the set of serving processes of one workload.
type fleet struct {
	entry  string   // base URL the clients send to
	shards []string // base URL of every alsserve (swap visibility is checked per shard)
	procs  []*child // every serving process, for CPU and RSS accounting
}

func modelVersion(c *http.Client, base string) string {
	resp, err := c.Get(base + "/v1/model")
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	var m serve.ModelResponse
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&m) != nil {
		return ""
	}
	return m.Version
}

func versionName(iteration int) string { return fmt.Sprintf("ckpt-%d", iteration) }

// startFleet starts the workload's serving processes following watchDir
// and waits until every one of them serves the newest checkpoint there.
func startFleet(ps *procSet, bins binaries, w workload, in *inputs, watchDir string) (*fleet, error) {
	fl := &fleet{}
	ctl := &http.Client{Timeout: 2 * time.Second}
	want := versionName(w.Iters)
	for i := 0; i < w.Shards; i++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		c, err := ps.start(fmt.Sprintf("alsserve-%d", i), bins.alsserve, w.serveArgs(in.ratingsPath, watchDir, addr, i)...)
		if err != nil {
			return nil, err
		}
		fl.procs = append(fl.procs, c)
		fl.shards = append(fl.shards, "http://"+addr)
	}
	for i, base := range fl.shards {
		if !waitFor(30*time.Second, 20*time.Millisecond, func() bool {
			return fl.procs[i].exited() || modelVersion(ctl, base) == want
		}) || fl.procs[i].exited() {
			return nil, fmt.Errorf("alsserve-%d never served %s\n%s", i, want, fl.procs[i].logTail(20))
		}
	}
	fl.entry = fl.shards[0]
	if w.Shards > 1 {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		c, err := ps.start("alsfront", bins.alsfront, "-addr", addr, "-shards", strings.Join(fl.shards, ","))
		if err != nil {
			return nil, err
		}
		fl.procs = append(fl.procs, c)
		fl.entry = "http://" + addr
		ready := func() bool {
			resp, err := ctl.Get(fl.entry + "/readyz")
			if err != nil {
				return false
			}
			resp.Body.Close()
			return resp.StatusCode == http.StatusOK
		}
		if !waitFor(10*time.Second, 20*time.Millisecond, func() bool { return c.exited() || ready() }) || c.exited() {
			return nil, fmt.Errorf("alsfront never became ready\n%s", c.logTail(20))
		}
	}
	return fl, nil
}

// cpuSeconds sums utime+stime over the serving processes.
func (fl *fleet) cpuSeconds() float64 {
	var s float64
	for _, c := range fl.procs {
		if st, err := readProcStat(c.pid()); err == nil {
			s += st.cpuSeconds
		}
	}
	return s
}

func (fl *fleet) rssMB() float64 {
	var s float64
	for _, c := range fl.procs {
		if mb, err := procMemMB(c.pid(), "VmRSS"); err == nil {
			s += mb
		}
	}
	return s
}

// request is one client-observed request. Times are offsets from the start
// of the serving phase.
type request struct {
	start, end time.Duration
	ok         bool // transport OK and HTTP 200
}

// sampledResponse is a response kept for the post-hoc output check.
type sampledResponse struct {
	start, end time.Duration
	user       int     // recommend: the user asked for
	rated      []int32 // fold-in: the items sent (nil for recommend)
	body       []byte
}

const (
	recommendSampleEvery = 50
	foldInSampleEvery    = 10
)

// client is one closed-loop caller: it sends its next request only after
// the previous reply has arrived, over one keep-alive connection.
type client struct {
	requests []request
	samples  []sampledResponse
}

func (cl *client) run(w workload, entry string, users, items int, seed int64, t0 time.Time, total time.Duration) {
	hc := &http.Client{
		Timeout:   2 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
	}
	defer hc.CloseIdleConnections()
	sampler := dataset.NewZipfSampler(users, zipfSkew, seed)
	rng := rand.New(rand.NewSource(seed))
	var nRec, nFold int
	for time.Since(t0) < total {
		var req *http.Request
		var keep bool
		smp := sampledResponse{}
		if w.FoldInShare > 0 && rng.Float64() < w.FoldInShare {
			its, vals := foldInRequest(rng, items, w.Preset)
			body, _ := json.Marshal(serve.FoldInRequest{Items: its, Ratings: vals, N: topN})
			req, _ = http.NewRequest(http.MethodPost, entry+"/v1/foldin", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			nFold++
			keep, smp.rated = nFold%foldInSampleEvery == 0, its
		} else {
			smp.user = sampler.Draw()
			req, _ = http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/recommend?user=%d&n=%d", entry, smp.user, topN), nil)
			nRec++
			keep = nRec%recommendSampleEvery == 0
		}
		r := request{start: time.Since(t0)}
		resp, err := hc.Do(req)
		if err == nil {
			if keep {
				smp.body, err = io.ReadAll(resp.Body)
			} else {
				_, err = io.Copy(io.Discard, resp.Body)
			}
			resp.Body.Close()
			r.ok = err == nil && resp.StatusCode == http.StatusOK
		}
		r.end = time.Since(t0)
		cl.requests = append(cl.requests, r)
		if keep && r.ok {
			smp.start, smp.end = r.start, r.end
			cl.samples = append(cl.samples, smp)
		}
	}
}

// startClients sets n closed-loop clients going against entry until total
// has passed since t0, each on its own seeded request schedule; wait blocks
// until the last one has returned.
func startClients(w workload, entry string, users, items int, seed int64, n int, t0 time.Time, total time.Duration) (clients []*client, wait func()) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cl := &client{}
		clients = append(clients, cl)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl.run(w, entry, users, items, seed+int64(i)*7919, t0, total)
		}(i)
	}
	return clients, wg.Wait
}

// publication is one hot-swap the benchmark triggered during serving, at
// the start of a measured segment.
type publication struct {
	segment int
	version string
	state   *checkpoint.State
	// Offsets from the start of the serving phase: just before the file is
	// written, and once every shard reports the new version.
	published, visible time.Duration
}

// servePlan is the timing of the serving phase.
type servePlan struct {
	warmup   time.Duration
	segment  time.Duration
	segments int
	clients  int
}

// segmentStats is what one measured segment holds.
type segmentStats struct {
	index      int
	seconds    float64
	cpuSeconds float64   // of the serving processes
	latMs      []float64 // one entry per OK response
}

// servePhase drives the fleet with the plan's closed-loop clients and
// reduces the measured segments to the four serving metrics.
func servePhase(fl *fleet, w workload, in *inputs, watchDir string, seed int64, plan servePlan, speed *speedometer, o *ops, res *result) error {
	final, err := checkpoint.Load(checkpoint.OS, filepath.Join(watchDir, checkpoint.FileName(w.Iters)))
	if err != nil {
		return err
	}
	users, items := final.X.Rows, final.Y.Rows
	// The states a republishing workload alternates between are loaded
	// before the clock starts, so a swap costs the load generator only the
	// encode and the fsync.
	versions := map[string]*checkpoint.State{versionName(w.Iters): final}
	var republish []*checkpoint.State
	if w.Republish {
		prev, err := checkpoint.Load(checkpoint.OS, filepath.Join(watchDir, checkpoint.FileName(w.Iters-1)))
		if err != nil {
			return err
		}
		republish = []*checkpoint.State{prev, final}
	}

	total := plan.warmup + time.Duration(plan.segments)*plan.segment
	t0 := time.Now()
	clients, wait := startClients(w, fl.entry, users, items, seed, plan.clients, t0, total)

	// The coordinator marks the segment boundaries: it reads the serving
	// processes' CPU clocks there and, on a republishing workload, hot-swaps.
	ctl := &http.Client{Timeout: 2 * time.Second}
	bounds := make([]time.Duration, plan.segments+1)
	cpuAt := make([]float64, plan.segments+1)
	var rss []float64
	var pubs []publication
	for s := 0; s <= plan.segments; s++ {
		time.Sleep(time.Until(t0.Add(plan.warmup + time.Duration(s)*plan.segment)))
		bounds[s], cpuAt[s] = time.Since(t0), fl.cpuSeconds()
		rss = append(rss, fl.rssMB())
		if s == plan.segments || republish == nil {
			continue
		}
		o.attempted++
		from := republish[len(pubs)%len(republish)]
		st := *from
		st.Iteration = w.Iters + 1 + len(pubs)
		pub := publication{segment: s, version: versionName(st.Iteration), state: from, published: time.Since(t0)}
		if _, err := checkpoint.Save(checkpoint.OS, watchDir, &st); err != nil {
			o.failf("republishing %s: %v", pub.version, err)
			continue
		}
		seen := waitFor(2*time.Second, 10*time.Millisecond, func() bool {
			for _, base := range fl.shards {
				if modelVersion(ctl, base) != pub.version {
					return false
				}
			}
			return true
		})
		pub.visible = time.Since(t0)
		if !seen {
			o.failf("swap to %s not visible on every shard within 2s", pub.version)
		}
		versions[pub.version] = pub.state
		pubs = append(pubs, pub)
	}
	wait()
	// A Go heap saw-tooths between collections, so one reading depends on
	// where in the cycle it lands; the median over the boundaries does not.
	res.set("serve_rss_mb", median(rss))

	for _, cl := range clients {
		for _, r := range cl.requests {
			o.attempted++
			if !r.ok {
				o.failed++
			}
		}
	}
	if o.failed > 0 && len(o.notes) == 0 {
		o.notes = append(o.notes, "requests failed with a transport error or a non-200 status")
	}
	// A republishing workload is measured only over segments that hold a
	// hot-swap, so the best segment can never be one the swap stayed out of.
	segs := bucketSegments(bounds, cpuAt, clients)
	if w.Republish {
		swapped := make([]bool, len(segs))
		for _, p := range pubs {
			swapped[p.segment] = true
		}
		segs = keepSegments(segs, swapped)
	}
	res.aux("serve_segments", float64(len(segs)))
	var rps, p50, p99, cpuPer []float64
	for _, seg := range segs {
		if len(seg.latMs) == 0 {
			o.failf("segment %d served no request", seg.index)
			continue
		}
		rps = append(rps, float64(len(seg.latMs))/seg.seconds)
		p50 = append(p50, percentile(seg.latMs, 0.5))
		p99 = append(p99, percentile(seg.latMs, 0.99))
		cpuPer = append(cpuPer, seg.cpuSeconds*1e6/float64(len(seg.latMs)))
	}
	cost := speed.costDuring(span{t0.Add(bounds[0]), t0.Add(bounds[plan.segments])})
	res.set("serve_rps", best(rps, false)/atNominal(cost))
	res.set("serve_p50_ms", best(p50, true)*atNominal(cost))
	res.set("serve_cpu_us_per_req", best(cpuPer, true)*atNominal(cost))
	res.aux("serve_rps.raw", best(rps, false))
	res.aux("serve_p50_ms.raw", best(p50, true))
	res.aux("serve_cpu_us_per_req.raw", best(cpuPer, true))
	res.aux("speed_cost_ms.serve", cost*1e3)
	res.aux("serve_rps.median", median(rps))
	res.aux("serve_p50_ms.median", median(p50))
	res.aux("serve_p99_ms.median", median(p99))
	res.aux("serve_cpu_us_per_req.median", median(cpuPer))
	res.aux("serve_swaps", float64(len(pubs)))
	var swapMs []float64
	for _, p := range pubs {
		swapMs = append(swapMs, float64(p.visible-p.published)/float64(time.Millisecond))
	}
	if len(swapMs) > 0 {
		res.aux("swap_visible_ms.median", median(swapMs))
	}

	checkSamples(w, in, clients, versions, pubs, o, res)
	return nil
}

// bucketSegments sorts every OK request into the measured segment it
// completed in, by the boundary timestamps the coordinator actually took.
func bucketSegments(bounds []time.Duration, cpuAt []float64, clients []*client) []segmentStats {
	segs := make([]segmentStats, len(bounds)-1)
	for s := range segs {
		segs[s].index = s
		segs[s].seconds = (bounds[s+1] - bounds[s]).Seconds()
		segs[s].cpuSeconds = cpuAt[s+1] - cpuAt[s]
	}
	for _, cl := range clients {
		for _, r := range cl.requests {
			if s := segmentOf(bounds, r.end); s >= 0 && r.ok {
				segs[s].latMs = append(segs[s].latMs, float64(r.end-r.start)/float64(time.Millisecond))
			}
		}
	}
	return segs
}

// keepSegments returns the segments whose flag is set.
func keepSegments(segs []segmentStats, keep []bool) []segmentStats {
	var kept []segmentStats
	for _, seg := range segs {
		if keep[seg.index] {
			kept = append(kept, seg)
		}
	}
	return kept
}

// segmentOf returns the measured segment a completion time falls into, or
// -1 for the warm-up and anything after the last boundary.
func segmentOf(bounds []time.Duration, t time.Duration) int {
	if t < bounds[0] || t >= bounds[len(bounds)-1] {
		return -1
	}
	s := 0
	for s+1 < len(bounds)-1 && t >= bounds[s+1] {
		s++
	}
	return s
}

// checkSamples is the output oracle: every kept /v1/recommend response must
// list, item for item, the top-N the reference scorer computes from the
// factors of the version the response names, and every kept fold-in
// response must hold finite scores and none of the items the caller rated.
//
// A sharded fleet mixes versions while a swap is in flight (each shard
// polls the directory on its own; see ROADMAP item 5), so responses that
// were in flight at any moment between a publication and its visibility on
// every shard are set aside, counted in oracle_skipped, and not compared.
func checkSamples(w workload, in *inputs, clients []*client, versions map[string]*checkpoint.State, pubs []publication, o *ops, res *result) {
	inSwap := func(start, end time.Duration) bool {
		for _, p := range pubs {
			if start <= p.visible && end >= p.published {
				return true
			}
		}
		return false
	}
	var checked, skipped int
	for _, cl := range clients {
		for _, smp := range cl.samples {
			if w.Shards > 1 && inSwap(smp.start, smp.end) {
				skipped++
				continue
			}
			checked++
			if msg := checkSample(w, in, smp, versions); msg != "" {
				// The request was already counted as attempted and OK by
				// status; the oracle turns it into a failure.
				o.failf("%s", msg)
			}
		}
	}
	res.aux("oracle_checked", float64(checked))
	res.aux("oracle_skipped", float64(skipped))
	if checked == 0 {
		o.failf("the output oracle checked no response")
	}
}

func checkSample(w workload, in *inputs, smp sampledResponse, versions map[string]*checkpoint.State) string {
	var resp serve.RecommendResponse // a fold-in response is the same minus user and cached
	if err := json.Unmarshal(smp.body, &resp); err != nil {
		return fmt.Sprintf("undecodable response: %v", err)
	}
	st, ok := versions[resp.Version]
	if !ok {
		return fmt.Sprintf("response names unknown version %q", resp.Version)
	}
	if smp.rated != nil {
		rated := map[int]bool{}
		for _, it := range smp.rated {
			rated[int(it)] = true
		}
		if len(resp.Items) == 0 {
			return "fold-in returned no items"
		}
		for _, it := range resp.Items {
			if rated[it.Item] {
				return fmt.Sprintf("fold-in returned rated item %d", it.Item)
			}
			if math.IsNaN(it.Score) || math.IsInf(it.Score, 0) {
				return fmt.Sprintf("fold-in score for item %d is %g", it.Item, it.Score)
			}
		}
		return ""
	}
	var want []int
	if st.QY != nil {
		for _, s := range st.QY.TopN(st.X.Row(smp.user), serve.RatedExcluder(in.train.R, smp.user), topN) {
			want = append(want, s.Item)
		}
	} else {
		want = metrics.TopN(in.train.R, st.X, st.Y, smp.user, topN)
	}
	if len(resp.Items) != len(want) {
		return fmt.Sprintf("user %d at %s: %d items, want %d", smp.user, resp.Version, len(resp.Items), len(want))
	}
	for i, it := range resp.Items {
		if it.Item != want[i] {
			return fmt.Sprintf("user %d at %s: item %d is %d, want %d", smp.user, resp.Version, i, it.Item, want[i])
		}
		if in.train.R.At(smp.user, it.Item) != 0 {
			return fmt.Sprintf("user %d at %s: rated item %d returned", smp.user, resp.Version, it.Item)
		}
	}
	return ""
}
