package quant_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/quant"
)

// TestQuantSmoke is the end-to-end check the `make quant-smoke` CI lane
// runs, entirely through the real binaries: train a tiny preset model,
// serve it at f32, f16 and i8 via alsserve -precision, and require (a)
// each quantized server's top-10 to overlap the f32 ranking by at least
// 0.9 on average over a user sample, (b) /v1/model to report the precision,
// (c) /metrics to pass the strict exposition parser and carry the
// precision info gauge plus the quantization error gauge, (d) the startup
// line and the kernel info gauge to name the build's int8 block kernel, and
// (e) where that kernel is not the portable one, a `-tags purego` alsserve
// to name the portable one and answer every i8 request with the same bytes.
func TestQuantSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the alstrain/alsserve binaries")
	}
	dir := t.TempDir()
	build := func(name, file, tags string) string {
		bin := filepath.Join(dir, file)
		cmd := exec.Command("go", "build", "-tags", tags, "-o", bin, "repro/cmd/"+name)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s (tags %q): %v\n%s", name, tags, err, out)
		}
		return bin
	}
	// The binaries are built the way this test binary was, so they run the
	// kernel quant.KernelName() names here.
	tags := ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-tags" {
				tags = s.Value
			}
		}
	}
	alstrain, alsserve := build("alstrain", "alstrain", tags), build("alsserve", "alsserve", tags)

	// k = 20 is one 16-column group for a vector kernel plus a 4-column tail.
	model := filepath.Join(dir, "smoke.model")
	train := exec.Command(alstrain, "-preset", "MVLE", "-scale", "0.02",
		"-iters", "6", "-k", "20", "-test-frac", "0", "-seed", "17", "-out", model)
	if out, err := train.CombinedOutput(); err != nil {
		t.Fatalf("alstrain: %v\n%s", err, out)
	}

	users := []int{0, 1, 2, 5, 11, 23, 47, 95}
	const n = 10
	// serve starts bin at prec, checks what it reports about itself and
	// returns each user's recommendation: the items and the raw body.
	serve := func(bin, prec, kernel string) (map[int][]int, []string) {
		addr, preamble := startServer(t, bin,
			[]string{"-model", model, "-precision", prec, "-addr", "127.0.0.1:0"},
			"alsserve: listening on ")
		base := "http://" + addr
		if want := "precision=" + prec + " kernel=" + kernel; !strings.Contains(strings.Join(preamble, "\n"), want) {
			t.Fatalf("%s startup output lacks %q:\n%s", prec, want, strings.Join(preamble, "\n"))
		}

		var info struct {
			Precision string `json:"precision"`
		}
		getInto(t, base+"/v1/model", &info)
		if info.Precision != prec {
			t.Fatalf("/v1/model precision %q, want %q", info.Precision, prec)
		}

		tops, bodies := map[int][]int{}, []string(nil)
		for _, u := range users {
			var rec struct {
				Items []struct {
					Item int `json:"item"`
				} `json:"items"`
			}
			body := get(t, fmt.Sprintf("%s/v1/recommend?user=%d&n=%d", base, u, n))
			if err := json.Unmarshal(body, &rec); err != nil {
				t.Fatal(err)
			}
			if len(rec.Items) != n {
				t.Fatalf("%s user %d: %d items, want %d", prec, u, len(rec.Items), n)
			}
			for _, it := range rec.Items {
				tops[u] = append(tops[u], it.Item)
			}
			bodies = append(bodies, string(body))
		}

		raw := get(t, base+"/metrics")
		if cnt, err := obs.ValidateExposition(bytes.NewReader(raw)); err != nil {
			t.Fatalf("%s exposition invalid: %v\n%s", prec, err, raw)
		} else if cnt == 0 {
			t.Fatalf("%s exposition empty", prec)
		}
		for _, want := range []string{
			`als_scorer_precision{precision="` + prec + `"} 1`,
			`als_scan_kernel_info{kernel="` + kernel + `"} 1`,
		} {
			if !bytes.Contains(raw, []byte(want)) {
				t.Fatalf("%s exposition lacks %s", prec, want)
			}
		}
		if quantized := prec != "f32"; quantized != bytes.Contains(raw, []byte("als_quant_max_abs_error")) {
			t.Fatalf("%s exposition max-abs-error gauge: present=%v", prec, !quantized)
		}
		return tops, bodies
	}

	tops, bodies := map[string]map[int][]int{}, map[string][]string{}
	for _, prec := range []string{"f32", "f16", "i8"} {
		tops[prec], bodies[prec] = serve(alsserve, prec, quant.KernelName())
	}
	if quant.KernelName() != "portable" {
		_, portable := serve(build("alsserve", "alsserve-purego", "purego"), "i8", "portable")
		if !slices.Equal(portable, bodies["i8"]) {
			t.Fatalf("i8 responses differ between kernels:\n%s: %q\nportable: %q", quant.KernelName(), bodies["i8"], portable)
		}
	}

	for _, prec := range []string{"f16", "i8"} {
		var sum float64
		for _, u := range users {
			ref := map[int]bool{}
			for _, it := range tops["f32"][u] {
				ref[it] = true
			}
			hits := 0
			for _, it := range tops[prec][u] {
				if ref[it] {
					hits++
				}
			}
			sum += float64(hits) / float64(n)
		}
		if overlap := sum / float64(len(users)); overlap < 0.9 {
			t.Fatalf("%s mean overlap@%d vs f32 = %.3f, want >= 0.9", prec, n, overlap)
		}
	}
}

// get returns the body of a GET that must answer 200.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return body
}

func getInto(t *testing.T, url string, out any) {
	t.Helper()
	if err := json.Unmarshal(get(t, url), out); err != nil {
		t.Fatal(err)
	}
}

// startServer launches a server binary, waits for its "listening on" line,
// and returns the bound address with the lines printed before it. The
// process is killed on test cleanup — including failures — so the smoke
// lane cannot leak orphans.
func startServer(t *testing.T, bin string, args []string, listenPrefix string) (addr string, preamble []string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	deadline := time.After(15 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("%s exited before announcing its address", bin)
			}
			if rest, found := strings.CutPrefix(line, listenPrefix); found {
				go func() {
					for range lines {
					}
				}()
				return strings.Fields(rest)[0], preamble
			}
			preamble = append(preamble, line)
		case <-deadline:
			t.Fatalf("%s never announced its address", bin)
		}
	}
}
