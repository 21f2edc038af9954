package solvers_test

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestImplicitSmoke is the implicit-mode end-to-end check the CI lane runs
// (make implicit-smoke): build the real alstrain binary, train the YMR4
// preset in implicit mode through both fast paths the PR promotes — the
// matrix-free CG solver and the iALS++ block-coordinate updates — and
// require, per run: exit 0, held-out recall@10 at least the floor, and a
// /metrics exposition that passes the strict parser and carries the
// per-mode stage attribution (CG spends s2+s3, block sweeps spend s1+s2,
// both labeled mode="implicit"). Before those, a second alstrain built
// -tags purego must train the same bytes as the default build through the
// CG solver, implicit and explicit: linalg's SSE2 kernels against the
// portable loops, through the binaries.
func TestImplicitSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the alstrain binary")
	}
	dir := t.TempDir()
	build := func(file string, flags ...string) string {
		bin := filepath.Join(dir, file)
		cmd := exec.Command("go", append(append([]string{"build"}, flags...), "-o", bin, "repro/cmd/alstrain")...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building alstrain %v: %v\n%s", flags, err, out)
		}
		return bin
	}
	bin := build("alstrain")

	// The CG matvec and the shared Gram run linalg's SSE2 kernels in the
	// default amd64 build and the portable loops under -tags purego; the two
	// must write the same model, byte for byte: k = 64 and 32 take the
	// assembly for every row, k = 20 too (a multiple of four, not of eight).
	t.Run("kernels", func(t *testing.T) {
		purego := build("alstrain-purego", "-tags", "purego")
		for _, tc := range [][]string{
			{"-implicit", "-alpha", "5", "-k", "64"},
			{"-implicit", "-alpha", "5", "-k", "20"},
			{"-k", "32"},
		} {
			var models [2][]byte
			for i, b := range []string{bin, purego} {
				out := filepath.Join(dir, "kernels.model")
				args := append([]string{"-preset", "YMR4", "-scale", "0.02", "-iters", "3", "-seed", "5",
					"-test-frac", "0", "-solver", "cg", "-cg-iters", "3", "-out", out}, tc...)
				if msg, err := exec.Command(b, args...).CombinedOutput(); err != nil {
					t.Fatalf("%s %v: %v\n%s", filepath.Base(b), tc, err, msg)
				}
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
			cmd := exec.Command(bin, args...)
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			defer func() {
				cmd.Process.Kill()
				cmd.Wait()
			}()

			// Follow stdout for the debug address, the recall line, and the
			// linger marker that means training (and metric flushing) is done.
			var addr string
			recall := -1.0
			sc := bufio.NewScanner(stdout)
			deadline := time.After(60 * time.Second)
			lines := make(chan string)
			go func() {
				defer close(lines)
				for sc.Scan() {
					lines <- sc.Text()
				}
			}()
		wait:
			for {
				select {
				case line, ok := <-lines:
					if !ok {
						t.Fatal("alstrain exited before lingering")
					}
					if rest, found := strings.CutPrefix(line, "debug server listening on http://"); found {
						addr = rest
					}
					if i := strings.Index(line, "recall@10: "); i >= 0 {
						fields := strings.Fields(line[i:])
						if len(fields) >= 2 {
							if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
								recall = v
							}
						}
					}
					if strings.HasPrefix(line, "debug server lingering") {
						break wait
					}
				case <-deadline:
					t.Fatal("timed out waiting for alstrain")
				}
			}
			if addr == "" {
				t.Fatal("alstrain never printed the debug address")
			}
			if recall < 0 {
				t.Fatal("alstrain never printed recall@10")
			}
			if recall < recallFloor {
				t.Errorf("implicit %s recall@10 = %g, want ≥ %g", tc.name, recall, recallFloor)
			}

			resp, err := http.Get("http://" + addr + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			body := string(b)
			if n, err := obs.ValidateExposition(strings.NewReader(body)); err != nil || n == 0 {
				t.Fatalf("/metrics invalid exposition (%d samples): %v\n%s", n, err, body)
			}
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
