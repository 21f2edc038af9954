package metrics

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestTopKSelectsStrongest(t *testing.T) {
	tk := NewTopK(3)
	for i, s := range []float64{5, 1, 9, 7, 3, 8} {
		tk.Push(i, s)
	}
	got := tk.Drain()
	want := []Scored{{Item: 2, Score: 9}, {Item: 5, Score: 8}, {Item: 3, Score: 7}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if tk.Len() != 0 {
		t.Fatal("Drain did not reset")
	}
}

func TestTopKTiesPreferLowerIndex(t *testing.T) {
	tk := NewTopK(2)
	for i := 4; i >= 0; i-- {
		tk.Push(i, 1.0)
	}
	got := tk.Drain()
	want := []Scored{{Item: 0, Score: 1}, {Item: 1, Score: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTopKDegenerate(t *testing.T) {
	tk := NewTopK(0)
	tk.Push(1, 5)
	if got := tk.Drain(); len(got) != 0 {
		t.Fatalf("k=0 retained %v", got)
	}
	tk = NewTopK(-3)
	tk.Push(1, 5)
	if got := tk.Drain(); len(got) != 0 {
		t.Fatalf("negative k retained %v", got)
	}
	if _, full := NewTopK(2).Threshold(); full {
		t.Fatal("empty selector claims to be full")
	}
}

func TestTopKThreshold(t *testing.T) {
	tk := NewTopK(2)
	tk.Push(0, 5)
	tk.Push(1, 9)
	weakest, full := tk.Threshold()
	if !full || weakest.Score != 5 {
		t.Fatalf("threshold = %v full=%v", weakest, full)
	}
}

// TestTopKRandomAgainstSort: property check against a full sort oracle.
func TestTopKRandomAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(400)
		k := 1 + rng.Intn(30)
		all := make([]Scored, n)
		tk := NewTopK(k)
		for i := 0; i < n; i++ {
			// Coarse scores force plenty of ties.
			s := float64(rng.Intn(10))
			all[i] = Scored{Item: i, Score: s}
			tk.Push(i, s)
		}
		sort.Slice(all, func(a, b int) bool { return weaker(all[b], all[a]) })
		if k > n {
			k = n
		}
		want := all[:k]
		if got := tk.Drain(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d k=%d): got %v, want %v", trial, n, k, got, want)
		}
	}
}
