package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/host"
	"repro/internal/linalg"
	"repro/internal/shard"
	"repro/internal/sparse"
)

// trainedBytesCase is one in-process training configuration and the
// SHA-256 of the factors it must produce: X then Y, each as little-endian
// float32.
type trainedBytesCase struct {
	name  string
	data  func() *sparse.Matrix
	train func(*sparse.Matrix) (x, y *linalg.Dense, err error)
	want  string
}

// TestTrainedBytes pins what training computes, bit for bit, without going
// through any file format: a change to the trainer that moves one factor
// bit fails here. A change that is meant to move a hash updates the table
// and says why.
func TestTrainedBytes(t *testing.T) {
	if runtime.GOARCH != "amd64" || goamd64() >= "v3" {
		t.Skipf("hashes are of arithmetic without FMA fusion (the assembly kernels included); %s/%s fuses multiply-adds and rounds differently",
			runtime.GOARCH, goamd64())
	}
	explicit := func() *sparse.Matrix { return dataset.Movielens.ScaledForBench(0.005).Generate(3).Matrix }
	// The catalog workload's shape at toy size: ten items a user.
	catalog := func() *sparse.Matrix {
		return dataset.Preset{Name: "CATALOG", Users: 250, Items: 2500, NNZ: 20000,
			MinVal: 0.5, MaxVal: 5, UserSkew: 0.82, ItemSkew: 0.78}.Generate(5).Matrix
	}
	viaCore := func(cfg core.Config) func(*sparse.Matrix) (*linalg.Dense, *linalg.Dense, error) {
		return func(mx *sparse.Matrix) (*linalg.Dense, *linalg.Dense, error) {
			cfg.Lambda, cfg.Iterations, cfg.Seed, cfg.UseRecommended = 0.1, 3, 7, true
			m, _, err := core.Train(mx, cfg)
			if err != nil {
				return nil, nil, err
			}
			return m.X, m.Y, nil
		}
	}
	cases := []trainedBytesCase{
		{"explicit/chol", explicit, viaCore(core.Config{K: 10}),
			"80ee16eaf847ca9ed679db344eefe364431554d3cebb4e4f810344387fd000cd"},
		{"explicit/ldl", explicit, viaCore(core.Config{K: 10, Solver: host.SolverLDL}),
			"99183e7a33b2b05a3923b9dd92edb38fee3976a7afdcaf5f1ec36634dedc12c4"},
		{"explicit/cg", explicit, viaCore(core.Config{K: 20, Solver: host.SolverCG, CGIters: 3}),
			"f08e1ea2ddaa28235e80de22f1fc675b5895e07a0d9602c8f1675e80370a4039"},
		{"explicit/weighted-lambda", explicit, viaCore(core.Config{K: 10, WeightedLambda: true}),
			"8ad5e3d918a6bf6974fcdc6d33d9a9c0742d5c181a9222e06d91c3b14a91749d"},
		{"explicit/flat-baseline", explicit, viaCore(core.Config{K: 10, Baseline: true}),
			"e26e81ea435b1427fb9c4324df6f8d4694c34ba7978eab448aabd0e7535a0e89"},
		{"implicit/chol", explicit, viaCore(core.Config{K: 16, Implicit: true, Alpha: 5}),
			"14b2706d34d463d0b5fb468e18ebe8655b7e61049f0e2d3383b81d1b2329af92"},
		{"implicit/cg", explicit, viaCore(core.Config{K: 16, Implicit: true, Alpha: 5, Solver: host.SolverCG, CGIters: 3}),
			"e3ecf0a37cef73a19e93832b4155707aa494728d19b72686d4dc9a34df19e7a8"},
		{"implicit/block16", explicit, viaCore(core.Config{K: 32, Implicit: true, Alpha: 5, BlockSize: 16}),
			"72bbe6d27371b6c404e315fba4c8dfe21e7f996ce5fba7afca6c5373fae3e67c"},
		{"implicit/catalog-k64-cg", catalog, viaCore(core.Config{K: 64, Implicit: true, Alpha: 5, Solver: host.SolverCG, CGIters: 3}),
			"10753622bd4758b0309e1e1205049a886297a3dd39afa1690aac67bfca078e44"},
		{"shard/w2", explicit, func(mx *sparse.Matrix) (*linalg.Dense, *linalg.Dense, error) {
			// Nil Spawn runs the two ranks as goroutines of this process.
			m, _, err := shard.Train(mx, shard.TrainerConfig{Workers: 2, K: 32, Lambda: 0.1,
				Iterations: 3, Seed: 7, UseRecommended: true, Threads: 1})
			if err != nil {
				return nil, nil, err
			}
			return m.X, m.Y, nil
		}, "e09795a0f218f9ca9ca1c8fa8aa35bf3c9815cdeb4f41ccfa50e4e8fbb0e45fa"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x, y, err := tc.train(tc.data())
			if err != nil {
				t.Fatal(err)
			}
			if got := factorHash(x, y); got != tc.want {
				t.Errorf("trained factors hash to %s, table has %s", got, tc.want)
			}
		})
	}
}

// factorHash is SHA-256(X‖Y), each factor as little-endian float32.
func factorHash(x, y *linalg.Dense) string {
	h := sha256.New()
	for _, d := range []*linalg.Dense{x, y} {
		buf := make([]byte, 0, 4*len(d.Data))
		for _, v := range d.Data {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goamd64 is the GOAMD64 level the test binary was built for ("v1" when the
// build does not record one).
func goamd64() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				return s.Value
			}
		}
	}
	return "v1"
}
