// coldstart: serving users who signed up after training. Instead of
// retraining, FoldInUser solves the same per-row normal equations the ALS
// X update uses (Eq. 4) against the frozen item factors — milliseconds
// instead of a training run.
//
// Part two drives the same fold-in through the serving layer's HTTP
// endpoint. By default an in-process server is started so the example works
// offline; set ALS_SERVE_ADDR (e.g. "http://localhost:8080") to target a
// running alsserve instead.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/sparse"
)

func main() {
	ds := dataset.Movielens.ScaledForBench(0.004).Generate(31)
	mx := ds.Matrix

	// Hold the five most active users out of training entirely.
	type act struct{ u, n int }
	acts := make([]act, mx.Rows())
	for u := range acts {
		acts[u] = act{u, mx.R.RowNNZ(u)}
	}
	sort.Slice(acts, func(i, j int) bool { return acts[i].n > acts[j].n })
	held := map[int]bool{}
	for _, a := range acts[:5] {
		held[a.u] = true
	}
	coo := sparse.NewCOO(mx.Rows(), mx.Cols())
	for u := 0; u < mx.Rows(); u++ {
		if held[u] {
			continue
		}
		cols, vals := mx.R.Row(u)
		for j, c := range cols {
			coo.Append(u, int(c), vals[j])
		}
	}
	coo.Rows, coo.Cols = mx.Rows(), mx.Cols()
	train, err := sparse.NewMatrix(coo)
	if err != nil {
		log.Fatal(err)
	}

	const lambda = 0.1
	model, info, err := core.Train(train, core.Config{
		K: 12, Lambda: lambda, Iterations: 10, Seed: 9,
		UseRecommended: true, WeightedLambda: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained without the 5 most active users in %.3fs\n\n", info.Seconds)

	for _, a := range acts[:5] {
		cols, vals := mx.R.Row(a.u)
		// Fold in from the first half of the user's history, evaluate on
		// the second half.
		half := len(cols) / 2
		start := time.Now()
		xu, err := model.FoldInUser(cols[:half], vals[:half], lambda*float32(half))
		if err != nil {
			log.Fatal(err)
		}
		foldMicros := time.Since(start).Microseconds()
		scores := model.ScoreItems(xu)
		var se float64
		for j := half; j < len(cols); j++ {
			d := scores[cols[j]] - float64(vals[j])
			se += d * d
		}
		rmse := math.Sqrt(se / float64(len(cols)-half))
		fmt.Printf("user %-5d: folded in %3d ratings in %4dµs; RMSE on %3d unseen ratings: %.3f\n",
			a.u, half, foldMicros, len(cols)-half, rmse)
	}

	// Part two: the same fold-in through the serving layer's HTTP API.
	base := os.Getenv("ALS_SERVE_ADDR")
	if base == "" {
		srv := serve.New(serve.Config{})
		srv.Swap(model, train.R, "coldstart-demo")
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		base = ts.URL
		fmt.Printf("\nin-process server at %s (set ALS_SERVE_ADDR to target a running alsserve)\n", base)
	} else {
		fmt.Printf("\ntargeting external server at %s\n", base)
	}

	u := acts[0].u
	cols, vals := mx.R.Row(u)
	half := len(cols) / 2
	payload, err := json.Marshal(map[string]any{
		"items": cols[:half], "ratings": vals[:half], "n": 5, "lambda": lambda * float64(half),
	})
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/foldin", "application/json", bytes.NewReader(payload))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST /v1/foldin: %s", resp.Status)
	}
	var rec struct {
		Version string `json:"version"`
		Items   []struct {
			Item  int     `json:"item"`
			Score float64 `json:"score"`
		} `json:"items"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("served fold-in for user %d (model %s): top items", u, rec.Version)
	for _, it := range rec.Items {
		fmt.Printf("  %d (%.2f)", it.Item, it.Score)
	}
	fmt.Println()
}
