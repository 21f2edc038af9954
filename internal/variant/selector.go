package variant

import (
	"fmt"
	"math"
	"sort"
)

// Features describes one execution context for the learned selector — the
// paper's future-work proposal ("we will introduce the machine learning
// technique to select an appropriate code variant according to the target
// architecture and input dataset"). The features are deliberately cheap:
// everything is known before training starts.
type Features struct {
	DeviceKind  string  // "CPU", "GPU", "MIC"
	K           int     // latent factor
	MeanRowNNZ  float64 // average nonzeros per row
	RowCoV      float64 // row-degree coefficient of variation (imbalance)
	Rows        float64 // number of rows (log-scaled internally)
	FixedFactor float64 // size of the fixed factor matrix in MB
}

// vector embeds the features in a comparable space. Scale-free quantities
// enter directly; sizes enter logarithmically.
func (f Features) vector() [5]float64 {
	return [5]float64{
		float64(f.K) / 10,
		math.Log1p(f.MeanRowNNZ) / 5,
		f.RowCoV / 2,
		math.Log1p(f.Rows) / 12,
		math.Log1p(f.FixedFactor) / 5,
	}
}

func (f Features) distance(g Features) float64 {
	if f.DeviceKind != g.DeviceKind {
		// Architectures have different optimization landscapes (Fig. 6);
		// cross-architecture neighbours are heavily penalized rather than
		// excluded so a sparsely-trained selector still answers.
		return 1e3 + f.sq(g)
	}
	return f.sq(g)
}

func (f Features) sq(g Features) float64 {
	a, b := f.vector(), g.vector()
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Sample is one training observation: a context and the variant that was
// empirically fastest there.
type Sample struct {
	Features Features
	Best     Options
}

// MLSelector is a k-nearest-neighbour code-variant selector trained on
// empirical measurements.
type MLSelector struct {
	samples []Sample
	k       int
}

// NewMLSelector returns a selector using k nearest neighbours (k is
// clamped to at least 1).
func NewMLSelector(k int) *MLSelector {
	if k < 1 {
		k = 1
	}
	return &MLSelector{k: k}
}

// Train adds observations.
func (s *MLSelector) Train(samples ...Sample) {
	s.samples = append(s.samples, samples...)
}

// Predict returns the variant chosen by majority vote among the k nearest
// training contexts; ties break toward the nearest neighbour's choice.
func (s *MLSelector) Predict(f Features) (Options, error) {
	if len(s.samples) == 0 {
		return Options{}, fmt.Errorf("variant: selector has no training samples")
	}
	type cand struct {
		d    float64
		best Options
	}
	cands := make([]cand, len(s.samples))
	for i, sm := range s.samples {
		cands[i] = cand{d: f.distance(sm.Features), best: sm.Best}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
	k := s.k
	if k > len(cands) {
		k = len(cands)
	}
	votes := map[string]int{}
	for _, c := range cands[:k] {
		votes[c.best.ID()]++
	}
	bestID := cands[0].best.ID()
	bestVotes := votes[bestID]
	for id, n := range votes {
		if n > bestVotes {
			bestID, bestVotes = id, n
		}
	}
	return ParseID(bestID)
}
