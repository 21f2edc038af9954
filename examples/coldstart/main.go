// coldstart: serving users who signed up after training. Instead of
// retraining, the serving layer's /v1/foldin solves the same per-row normal
// equations the ALS X update uses (Eq. 4) against the frozen item factors —
// milliseconds instead of a training run.
//
// Part one folds held-out users in through an in-process server holding the
// model trained here, and scores their unseen ratings from the items it
// returns. Part two sends one fold-in to a serving endpoint: the same
// in-process server by default, so the example works offline; set
// ALS_SERVE_ADDR (e.g. "http://localhost:8080") to target a running
// alsserve instead.
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

	// MaxN covers the catalog, so a fold-in can return every item its user
	// has not rated, the unseen half included.
	srv := serve.New(serve.Config{MaxN: mx.Cols()})
	srv.Swap(model, train.R, "coldstart-demo")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, a := range acts[:5] {
		cols, vals := mx.R.Row(a.u)
		// Fold in from the first half of the user's history, evaluate on
		// the second half.
		half := len(cols) / 2
		start := time.Now()
		rec, err := foldIn(ts.URL, cols[:half], vals[:half], mx.Cols(), lambda*float32(half))
		if err != nil {
			log.Fatal(err)
		}
		foldMicros := time.Since(start).Microseconds()
		scores := make(map[int]float64, len(rec.Items))
		for _, it := range rec.Items {
			scores[it.Item] = it.Score
		}
		var se float64
		for j := half; j < len(cols); j++ {
			d := scores[int(cols[j])] - float64(vals[j])
			se += d * d
		}
		rmse := math.Sqrt(se / float64(len(cols)-half))
		fmt.Printf("user %-5d: folded in %3d ratings and scored the catalog in %5dµs; RMSE on %3d unseen ratings: %.3f\n",
			a.u, half, foldMicros, len(cols)-half, rmse)
	}

	// Part two: one fold-in's top items, from ALS_SERVE_ADDR if set.
	base := os.Getenv("ALS_SERVE_ADDR")
	if base == "" {
		base = ts.URL
		fmt.Printf("\nin-process server at %s (set ALS_SERVE_ADDR to target a running alsserve)\n", base)
	} else {
		fmt.Printf("\ntargeting external server at %s\n", base)
	}
	u := acts[0].u
	cols, vals := mx.R.Row(u)
	half := len(cols) / 2
	rec, err := foldIn(base, cols[:half], vals[:half], 5, lambda*float32(half))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("served fold-in for user %d (model %s): top items", u, rec.Version)
	for _, it := range rec.Items {
		fmt.Printf("  %d (%.2f)", it.Item, it.Score)
	}
	fmt.Println()
}

// foldIn POSTs a cold-start user's ratings to base's /v1/foldin and returns
// the top n items the server scores for them.
func foldIn(base string, items []int32, ratings []float32, n int, lambda float32) (*serve.FoldInResponse, error) {
	payload, err := json.Marshal(serve.FoldInRequest{Items: items, Ratings: ratings, N: n, Lambda: lambda})
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(base+"/v1/foldin", "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/foldin: %s", resp.Status)
	}
	var rec serve.FoldInResponse
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		return nil, err
	}
	return &rec, nil
}
