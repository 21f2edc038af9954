package shard_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/e2e"
)

// TestDistSmoke is the distributed end-to-end check the `make dist-smoke`
// CI lane runs, entirely through the real binaries: train a tiny preset
// single-process and with -workers 2 and require bit-identical model
// files, then stand up two alsserve shard replicas and an alsfront
// frontend, serve a merged recommendation, hold the frontend's /metrics to
// the strict exposition parser, and tear everything down (the processes
// are killed by deferred stops even when an assertion fails, so a broken
// run leaves no orphans).
func TestDistSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the alstrain/alsserve/alsfront binaries")
	}
	dir := t.TempDir()
	alstrain := e2e.Build(t, "alstrain")

	// Distributed training must be byte-identical to single-process.
	single := filepath.Join(dir, "single.model")
	dist := filepath.Join(dir, "dist.model")
	e2e.Run(t, alstrain, append(fleetTrainArgs, "-out", single)...)
	e2e.Run(t, alstrain, append(fleetTrainArgs, "-workers", "2", "-out", dist)...)
	requireSameModel(t, single, dist, "-workers 2 model differs from single-process")

	_, frontURL, _ := startFleet(t, single)
	body := e2e.Get(t, frontURL+"/v1/recommend?user=1&n=5")
	if !bytes.Contains(body, []byte(`"items":[{`)) || bytes.Contains(body, []byte(`"partial":true`)) {
		t.Fatalf("recommend response not a full merged top-N: %s", body)
	}

	raw := e2e.Scrape(t, frontURL).Text
	for _, want := range []string{"als_shard_partial_total", "als_front_requests_total", "als_front_shard_up"} {
		if !strings.Contains(raw, want) {
			t.Fatalf("frontend exposition lacks %s:\n%s", want, raw)
		}
	}
}

// TestRequestBodyLimits: a deployed fleet's JSON endpoints — a replica's
// /admin/swap and the frontend's /v1/foldin — stop reading a body at a limit
// derived from what they can accept and answer 413 past it; a body of
// exactly the limit is decoded and judged on its content. internal/serve's
// TestRequestBodyLimits holds the handlers to the same rule; this holds the
// binaries, wired from their flags, to it.
func TestRequestBodyLimits(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the alstrain/alsserve/alsfront binaries")
	}
	model := filepath.Join(t.TempDir(), "fleet.model")
	e2e.Run(t, e2e.Build(t, "alstrain"), append(fleetTrainArgs, "-out", model)...)
	const maxFoldIn = 4
	_, frontURL, shardURLs := startFleet(t, model, "-max-foldin-items", fmt.Sprint(maxFoldIn))
	// serve's limits, spelled out: a fold-in of n ratings may take 1 KiB + 48n
	// bytes, and bodies of a few scalars 64 KiB.
	foldIn := func(n int) int64 { return 1<<10 + 48*int64(n) }
	const small = 64 << 10
	cases := []struct {
		name, url, prefix string
		limit             int64
		atLimit           int // status for a body of exactly limit bytes
	}{
		{"replica swap", shardURLs[0] + "/admin/swap", `{"model":""`, small, 400},
		{"frontend foldin", frontURL + "/v1/foldin", `{"items":[1],"ratings":[5]`, foldIn(maxFoldIn), 200},
	}
	for _, c := range cases {
		for _, over := range []int64{0, 1} {
			size := c.limit + over
			body := c.prefix + strings.Repeat(" ", int(size)-len(c.prefix)-1) + "}"
			resp, err := http.Post(c.url, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var e struct{ Error string }
			json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			want := c.atLimit
			if over > 0 {
				want = http.StatusRequestEntityTooLarge
			}
			if resp.StatusCode != want {
				t.Errorf("%s, %d bytes over the limit: status %d (%q), want %d", c.name, over, resp.StatusCode, e.Error, want)
			}
		}
	}
}

// requireSameModel fails the test with what unless the two model files hold
// the same bytes.
func requireSameModel(t *testing.T, want, got, what string) {
	t.Helper()
	a, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("%s (%d vs %d bytes)", what, len(b), len(a))
	}
}

// fleetTrainArgs trains the tiny model the fleet lanes serve (a literal's
// capacity is its length, so appending to it copies).
var fleetTrainArgs = []string{"-preset", "YMR4", "-scale", "0.02", "-iters", "2",
	"-k", "6", "-test-frac", "0", "-seed", "11"}

// startFleet stands up two alsserve shard replicas of model on ephemeral
// ports and an alsfront (with frontArgs) fanning out to them, waits until
// the frontend's prober has marked both shards up, and returns the frontend
// with its base URL and the replicas' base URLs.
func startFleet(t *testing.T, model string, frontArgs ...string) (front *e2e.Proc, frontURL string, shardURLs []string) {
	t.Helper()
	alsserve, alsfront := e2e.Build(t, "alsserve"), e2e.Build(t, "alsfront")
	for i := 0; i < 2; i++ {
		p := e2e.Start(t, alsserve, "-model", model, "-shard", fmt.Sprintf("%d/2", i), "-addr", "127.0.0.1:0")
		shardURLs = append(shardURLs, "http://"+p.WaitLine("alsserve: listening on "))
	}
	front = e2e.Start(t, alsfront, append([]string{"-shards", strings.Join(shardURLs, ","),
		"-addr", "127.0.0.1:0", "-probe-interval", "100ms"}, frontArgs...)...)
	// The announce line goes on: "<addr>, fanning out to N shard(s)".
	addr, _, _ := strings.Cut(front.WaitLine("alsfront: listening on "), ",")
	frontURL = "http://" + addr
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(frontURL + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return front, frontURL, shardURLs
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("frontend never became ready (last error: %v); output:\n%s", err, front.Output())
		}
		time.Sleep(100 * time.Millisecond)
	}
}
