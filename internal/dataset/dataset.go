// Package dataset supplies the rating matrices the paper evaluates on.
//
// The paper uses four public datasets (Table I): Movielens10M, Netflix,
// YahooMusic R1 and YahooMusic R4. Those downloads are not available in this
// offline environment, so the package provides (a) a loader for the paper's
// `<userID, itemID, rating>` text format for users who have the real files,
// and (b) a deterministic synthetic generator whose presets match each
// dataset's (m, n, Nz) and reproduce the heavy-tailed rows-per-user /
// ratings-per-item skew that drives the paper's load-imbalance findings.
// Presets accept a scale factor so benchmark runs shrink the matrices while
// preserving density and skew.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime/debug"
	"time"

	"repro/internal/sparse"
)

// Dataset is a rating matrix plus its provenance.
type Dataset struct {
	Name   string
	Matrix *sparse.Matrix
	// Meta describes the preset this dataset was generated from, if any.
	Meta *Preset
	// Ingest is what reading the rating file took, if one was read.
	Ingest *IngestStats
}

// IngestStats splits the cost of Load and LoadCompact into their two steps:
// parsing the text into coordinates, and building the matrix from them.
type IngestStats struct {
	Bytes                      int64 // size of the rating file
	Lines                      int   // rating lines parsed (re-rated pairs counted each time)
	ParseSeconds, BuildSeconds float64
}

// ReadRatings opens and parses a rating file into coordinates, for a
// caller that builds its own view of them.
func ReadRatings(path string, oneBased bool) (*sparse.COO, *IngestStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	start := time.Now()
	coo, err := sparse.ReadTriples(f, oneBased)
	if err != nil {
		return nil, nil, fmt.Errorf("dataset: %s: %w", path, err)
	}
	st := &IngestStats{Lines: coo.NNZ(), ParseSeconds: time.Since(start).Seconds()}
	if fi, err := f.Stat(); err == nil {
		st.Bytes = fi.Size()
	}
	return coo, st, nil
}

// ReleaseLoad collects what a rating load left behind and returns the
// freed pages to the OS; a long-lived process calls it once its data is
// built, before it settles down to work. The pacer set its goal during the
// parse (39 MB of heap from 19 MB live on the 1.44 M-rating fleet2 file),
// so without a collection here none may run for a long while: the parse's
// dead row column (4 B a rating, 5.8 MB there) stays resident, later
// allocations land on fresh pages, and the freed ones wait for the
// background scavenger. debug.FreeOSMemory collects first, then releases:
// on the fleet2 file ≈ 0.4 ms of collection and ≈ 1 ms of releasing.
func ReleaseLoad() { debug.FreeOSMemory() }

// Preset describes one of the paper's Table I datasets.
type Preset struct {
	Name   string // paper abbreviation: MVLE, NTFX, YMR1, YMR4
	Long   string // full dataset name
	Users  int    // m
	Items  int    // n
	NNZ    int    // training nonzeros
	MinVal float32
	MaxVal float32
	// UserSkew and ItemSkew are the Zipf exponents of the synthetic degree
	// distributions; larger means heavier tails (more imbalance).
	UserSkew float64
	ItemSkew float64
}

// The paper's Table I.
var (
	Movielens = Preset{Name: "MVLE", Long: "Movielens10M", Users: 71567, Items: 65133,
		NNZ: 8000044, MinVal: 0.5, MaxVal: 5, UserSkew: 0.82, ItemSkew: 0.78}
	Netflix = Preset{Name: "NTFX", Long: "NetFlix", Users: 480189, Items: 17770,
		NNZ: 99072112, MinVal: 1, MaxVal: 5, UserSkew: 0.85, ItemSkew: 0.72}
	YahooR1 = Preset{Name: "YMR1", Long: "YahooMusic R1", Users: 1948882, Items: 98212,
		NNZ: 115248575, MinVal: 1, MaxVal: 5, UserSkew: 0.9, ItemSkew: 0.8}
	YahooR4 = Preset{Name: "YMR4", Long: "YahooMusic R4", Users: 7642, Items: 11916,
		NNZ: 211231, MinVal: 1, MaxVal: 5, UserSkew: 0.75, ItemSkew: 0.75}
)

// Presets lists the Table I datasets in the paper's figure order.
var Presets = []Preset{Movielens, Netflix, YahooR1, YahooR4}

// PresetByName looks a preset up by its paper abbreviation (case-sensitive).
func PresetByName(name string) (Preset, error) {
	for _, p := range Presets {
		if p.Name == name || p.Long == name {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("dataset: unknown preset %q", name)
}

// Scaled returns a copy of the preset with users, items and nonzeros scaled
// by f (0 < f <= 1), preserving density and skew. Dimensions are floored at
// small minimums so extreme scales stay valid matrices.
func (p Preset) Scaled(f float64) Preset {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("dataset: scale %g out of (0,1]", f))
	}
	s := p
	// Scale rows/cols by sqrt(f) and nnz by f: density is preserved.
	dim := math.Sqrt(f)
	s.Users = maxInt(8, int(float64(p.Users)*dim))
	s.Items = maxInt(8, int(float64(p.Items)*dim))
	s.NNZ = maxInt(16, int(float64(p.NNZ)*f))
	// A scaled preset must stay realizable: nnz can't exceed the dense size.
	if cap := s.Users * s.Items; s.NNZ > cap {
		s.NNZ = cap
	}
	return s
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Generate builds a deterministic synthetic rating matrix for the preset.
//
// Construction: user and item sampling weights follow truncated Zipf
// distributions with the preset's exponents; (u,i) pairs are drawn from the
// product distribution and deduplicated, giving the hallmark recommender
// shape — a few very active users / popular items and a long tail — which is
// what makes flat one-thread-per-row scheduling imbalanced (Sec. III-B).
// Ratings are drawn from a discretized per-user-biased distribution in
// [MinVal, MaxVal]. A planted low-rank signal (rank 4) is mixed in so that
// factorization genuinely reduces RMSE across iterations rather than
// fitting pure noise.
func (p Preset) Generate(seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	userW := zipfWeights(rng, p.Users, p.UserSkew)
	itemW := zipfWeights(rng, p.Items, p.ItemSkew)
	userAlias := newAlias(userW, rng)
	itemAlias := newAlias(itemW, rng)

	// Planted rank-4 structure for meaningful convergence.
	const rank = 4
	uf := make([]float32, p.Users*rank)
	vf := make([]float32, p.Items*rank)
	for i := range uf {
		uf[i] = rng.Float32()
	}
	for i := range vf {
		vf[i] = rng.Float32()
	}

	span := p.MaxVal - p.MinVal
	coo := sparse.NewCOO(p.Users, p.Items)
	coo.Grow(p.NNZ)
	seen := make(map[uint64]struct{}, p.NNZ+p.NNZ/4)
	attempts := 0
	maxAttempts := p.NNZ * 40
	for coo.NNZ() < p.NNZ && attempts < maxAttempts {
		attempts++
		u := userAlias.draw(rng)
		i := itemAlias.draw(rng)
		key := uint64(u)<<32 | uint64(uint32(i))
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		// Signal: inner product of planted factors, squashed into range.
		// Dividing by rank/2 centers the signal near 0.5 with enough spread
		// that the low-rank structure dominates the noise — factorization
		// must beat a global-mean predictor on held-out ratings.
		var sig float64
		for r := 0; r < rank; r++ {
			sig += float64(uf[u*rank+r]) * float64(vf[i*rank+r])
		}
		sig /= rank / 2
		noise := rng.NormFloat64() * 0.06
		val := float64(p.MinVal) + (sig+noise)*float64(span)
		val = clamp(val, float64(p.MinVal), float64(p.MaxVal))
		// Quantize to half-star steps like the real datasets.
		val = math.Round(val*2) / 2
		coo.Append(u, i, float32(val))
	}
	mx, err := sparse.NewMatrix(coo)
	if err != nil {
		// The generator guarantees unique coordinates; a failure here is a bug.
		panic(fmt.Sprintf("dataset: generate %s: %v", p.Name, err))
	}
	meta := p
	return &Dataset{Name: p.Name, Matrix: mx, Meta: &meta}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// zipfWeights returns n sampling weights w_r ∝ 1/rank^s with the ranks
// randomly permuted so row index does not correlate with popularity (real
// datasets assign IDs arbitrarily; this also exercises scattered access).
func zipfWeights(rng *rand.Rand, n int, s float64) []float64 {
	w := make([]float64, n)
	for r := 0; r < n; r++ {
		w[r] = 1 / math.Pow(float64(r+1), s)
	}
	rng.Shuffle(n, func(i, j int) { w[i], w[j] = w[j], w[i] })
	return w
}

// alias implements Vose's alias method for O(1) weighted sampling; the
// generator draws up to ~10^8 pairs for full-size presets, so sampling must
// be constant-time.
type alias struct {
	prob  []float64
	alias []int32
}

func newAlias(weights []float64, rng *rand.Rand) *alias {
	n := len(weights)
	var sum float64
	for _, w := range weights {
		sum += w
	}
	a := &alias{prob: make([]float64, n), alias: make([]int32, n)}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
	}
	for _, i := range small {
		a.prob[i] = 1
	}
	return a
}

func (a *alias) draw(rng *rand.Rand) int {
	i := rng.Intn(len(a.prob))
	if rng.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

// Load reads a rating file in the paper's `<userID, itemID, rating>` format.
func Load(path string, oneBased bool) (*Dataset, error) {
	coo, st, err := ReadRatings(path, oneBased)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	mx, err := sparse.NewMatrix(coo)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", path, err)
	}
	st.BuildSeconds = time.Since(start).Seconds()
	return &Dataset{Name: path, Matrix: mx, Ingest: st}, nil
}

// ScaledForBench returns a benchmark-sized copy of the preset that keeps
// the per-row/column nonzero counts closer to the full dataset's than the
// density-preserving Scaled does: nonzeros scale by f while users and items
// shrink super-linearly (f^0.8 and f^0.6). Mean row length thus falls only
// by ~f^0.2, so per-row effects (stage shares, batching wins) measured at
// bench scale keep the full-size shape. Density rises as a result; it is
// capped at 25% to stay a plausible sparse matrix. f > 1 grows the preset
// by the same laws — serving-side benches use this to stretch a small
// catalog until the top-N scan, not fixed per-request overhead, dominates.
func (p Preset) ScaledForBench(f float64) Preset {
	if f <= 0 {
		panic(fmt.Sprintf("dataset: bench scale %g must be positive", f))
	}
	if f == 1 {
		return p
	}
	s := p
	s.Users = maxInt(8, int(float64(p.Users)*math.Pow(f, 0.8)))
	s.Items = maxInt(8, int(float64(p.Items)*math.Pow(f, 0.6)))
	s.NNZ = maxInt(16, int(float64(p.NNZ)*f))
	if cap := s.Users * s.Items / 4; s.NNZ > cap {
		s.NNZ = cap
	}
	return s
}
