package solvers_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/e2e"
)

// TestImplicitSmoke is the implicit-mode end-to-end check the CI lane runs
// (make implicit-smoke): build the real alstrain binary, train the YMR4
// preset in implicit mode through both fast paths the PR promotes — the
// matrix-free CG solver and the iALS++ block-coordinate updates — and
// require, per run: exit 0, held-out recall@10 at least the floor, and a
// /metrics exposition that passes the strict parser and carries the
// per-mode stage attribution (CG spends s2+s3, block sweeps spend s1+s2,
// both labeled mode="implicit"). Before those, a second alstrain built
// -tags purego must train the same bytes as the default build through
// every solver, implicit and explicit, one process and two ranks: linalg's
// assembly kernels against the portable loops, through the binaries.
func TestImplicitSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the alstrain binary")
	}
	dir := t.TempDir()
	bin := e2e.Build(t, "alstrain")

	// linalg's float vector kernels are assembly in the default amd64 build
	// (the CG matvec AVX on a CPU that has it, the rest SSE2) and the
	// portable loops under -tags purego; the two must write the same model,
	// byte for byte. CG runs the matvec, the shared Gram and ConfRHS: k = 64
	// and 32 take the assembly for every row, k = 20 too (a multiple of four,
	// not of eight: the matvec's four-row pass and four-float tail). The direct solvers run the fused sweep and, for chol, the
	// row-ordered factorization: k = 10 and 20 leave every strip remainder,
	// and the forked ranks of -workers run them behind the BSP exchange.
	t.Run("kernels", func(t *testing.T) {
		purego := e2e.Build(t, "alstrain", "purego")
		cg := []string{"-solver", "cg", "-cg-iters", "3"}
		cases := [][]string{
			append([]string{"-implicit", "-alpha", "5", "-k", "64"}, cg...),
			append([]string{"-implicit", "-alpha", "5", "-k", "20"}, cg...),
			append([]string{"-k", "32"}, cg...),
			{"-workers", "2", "-threads", "1", "-k", "32"},
		}
		for _, solver := range []string{"chol", "ldl"} {
			for _, k := range []string{"10", "20", "32"} {
				cases = append(cases, []string{"-solver", solver, "-k", k})
			}
		}
		for _, tc := range cases {
			var models [2][]byte
			for i, b := range []string{bin, purego} {
				out := filepath.Join(dir, "kernels.model")
				e2e.Run(t, b, append([]string{"-preset", "YMR4", "-scale", "0.02", "-iters", "3", "-seed", "5",
					"-test-frac", "0", "-out", out}, tc...)...)
				var err error
				if models[i], err = os.ReadFile(out); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(models[0], models[1]) {
				t.Errorf("%v: the default and the purego build trained different models", tc)
			}
		}
	})

	// YMR4 at this scale has ~1100 items: random recall@10 ≈ 0.9%, the
	// trained implicit model measures ≈ 9-11%. The floor catches a model
	// that degenerated to noise without flaking on split variance.
	const recallFloor = 0.04
	for _, tc := range []struct {
		name       string
		extraFlags []string
		stages     []string
	}{
		{
			name:       "cg",
			extraFlags: []string{"-solver", "cg", "-cg-iters", "16"},
			stages:     []string{`stage="s2",mode="implicit"`, `stage="s3",mode="implicit"`},
		},
		{
			name:       "block",
			extraFlags: []string{"-block-size", "4"},
			stages:     []string{`stage="s1+s2",mode="implicit"`},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{
				"-preset", "YMR4", "-scale", "0.02", "-k", "8", "-iters", "5",
				"-implicit", "-alpha", "5", "-test-frac", "0.1",
				"-debug-addr", "127.0.0.1:0", "-debug-linger", "30s",
			}, tc.extraFlags...)
			p := e2e.Start(t, bin, args...)
			base := "http://" + p.WaitLine("debug server listening on http://")
			// The linger marker means training (and metric flushing) is done.
			p.WaitLine("debug server lingering")
			_, line, _ := strings.Cut(p.Output(), "recall@10: ")
			var recall float64
			if _, err := fmt.Sscan(line, &recall); err != nil {
				t.Fatalf("no recall@10 value (%v) in:\n%s", err, p.Output())
			}
			if recall < recallFloor {
				t.Errorf("implicit %s recall@10 = %g, want ≥ %g", tc.name, recall, recallFloor)
			}

			body := e2e.Scrape(t, base).Text
			for _, want := range append([]string{
				`als_train_info{program="alstrain"`,
				`mode="implicit"`,
				"als_train_iteration 5",
			}, tc.stages...) {
				if !strings.Contains(body, want) {
					t.Errorf("/metrics missing %q", want)
				}
			}
			// The explicit-mode label must NOT appear: every stage second of
			// an implicit run is attributed to its mode.
			if strings.Contains(body, `mode="explicit"`) {
				t.Errorf(`/metrics attributes stage time to mode="explicit" in an implicit run`)
			}
		})
	}
}
