package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/metrics"
)

// mergeItemsOracle is the merge mergeItems replaced, kept as its oracle:
// every returned item through one bounded heap, IDs carried in a map.
func mergeItemsOracle(results []*RecommendResponse, n int) ([]RecItem, string, uint64) {
	merged := metrics.NewTopK(n)
	byItem := make(map[int]RecItem)
	version, seq := "", uint64(0)
	for _, res := range results {
		if res == nil {
			continue
		}
		if res.Seq >= seq {
			version, seq = res.Version, res.Seq
		}
		for _, it := range res.Items {
			merged.Push(it.Item, it.Score)
			byItem[it.Item] = it
		}
	}
	drained := merged.Drain()
	out := make([]RecItem, len(drained))
	for i, s := range drained {
		it := byItem[s.Item]
		out[i] = RecItem{Item: s.Item, ID: it.ID, Score: s.Score}
	}
	return out, version, seq
}

// shardLists deals items [0, total) round-robin-by-range to shards lists,
// scores drawn from a small set so ties within and across shards are the
// rule, and returns each shard's top-per list as a replica would: strongest
// first, lower index first among equals. A nil entry stands for a shard
// that did not answer.
func shardLists(rng *rand.Rand, shards, total, per int, down map[int]bool) []*RecommendResponse {
	out := make([]*RecommendResponse, shards)
	for si := range out {
		if down[si] {
			continue
		}
		lo, hi := si*total/shards, (si+1)*total/shards
		items := make([]RecItem, 0, hi-lo)
		for i := lo; i < hi; i++ {
			items = append(items, RecItem{Item: i, ID: int64(1000 + i), Score: float64(rng.Intn(4)) / 2})
		}
		sort.Slice(items, func(a, b int) bool {
			if items[a].Score != items[b].Score {
				return items[a].Score > items[b].Score
			}
			return items[a].Item < items[b].Item
		})
		if len(items) > per {
			items = items[:per]
		}
		out[si] = &RecommendResponse{Version: fmt.Sprintf("v%d", si), Seq: uint64(rng.Intn(3)), Items: items}
	}
	return out
}

// TestMergeItemsMatchesOracle: the head-picking merge returns what the
// heap-and-map merge returned — items, IDs, scores, order, version and seq —
// with ties across shards, shards that did not answer, short and empty
// lists, n past everything returned, and n ≤ 0.
func TestMergeItemsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, shards := range []int{1, 2, 3, 5, 17} {
		for _, total := range []int{0, 1, shards, 40} {
			for _, per := range []int{0, 1, 3, 10} {
				for _, down := range []map[int]bool{nil, {0: true}, {shards - 1: true, 1: true}} {
					results := shardLists(rng, shards, total, per, down)
					for _, n := range []int{-1, 0, 1, 3, 10, 200} {
						what := fmt.Sprintf("shards=%d total=%d per=%d down=%v n=%d", shards, total, per, down, n)
						got, gv, gs := mergeItems(results, n)
						want, wv, ws := mergeItemsOracle(results, n)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s:\n got  %v\n want %v", what, got, want)
						}
						if gv != wv || gs != ws {
							t.Fatalf("%s: version/seq %q/%d, want %q/%d", what, gv, gs, wv, ws)
						}
					}
				}
			}
		}
	}
	if got, v, s := mergeItems(nil, 5); got == nil || len(got) != 0 || v != "" || s != 0 {
		t.Fatalf("no results: %v %q %d, want an empty non-nil list (it encodes as [] on the wire)", got, v, s)
	}
}

// TestMergeItemsAllocs pins the merge at one allocation per request — the
// returned list — where the heap-and-map merge made a dozen.
func TestMergeItemsAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	results := shardLists(rng, 2, 400, 10, nil)
	allocs := testing.AllocsPerRun(100, func() {
		if out, _, _ := mergeItems(results, 10); len(out) != 10 {
			t.Fatalf("%d items", len(out))
		}
	})
	if allocs > 1 {
		t.Errorf("mergeItems allocates %v times per request, want 1 (the result)", allocs)
	}
}

// TestLocalExcluder: a fold-in exclude list arrives in global ids, in no
// promised order and possibly repeated; the predicate covers exactly the
// ids inside this shard's range.
func TestLocalExcluder(t *testing.T) {
	const off, rows = 100, 50
	ex := localExcluder([]int32{149, 7, 120, 100, 120, 150, 99, 120, 3000, 101, -4}, off, rows)
	want := map[int]bool{49: true, 20: true, 0: true, 1: true}
	for i := -2; i < rows+2; i++ {
		if ex(i) != want[i] {
			t.Errorf("local row %d: excluded %v, want %v", i, ex(i), want[i])
		}
	}
	for name, list := range map[string][]int32{"nil": nil, "empty": {}, "all out of range": {5, 99, 150, 151}} {
		if localExcluder(list, off, rows) != nil {
			t.Errorf("%s exclude list: want a nil predicate", name)
		}
	}
	wire := []int32{130, 110, 130}
	localExcluder(wire, off, rows)
	if !reflect.DeepEqual(wire, []int32{130, 110, 130}) {
		t.Errorf("the request's exclude list was reordered in place: %v", wire)
	}
}
