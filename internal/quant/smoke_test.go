package quant_test

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/e2e"
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
	alstrain, alsserve := e2e.Build(t, "alstrain", tags), e2e.Build(t, "alsserve", tags)

	// k = 20 is one 16-column group for a vector kernel plus a 4-column tail.
	model := filepath.Join(t.TempDir(), "smoke.model")
	e2e.Run(t, alstrain, "-preset", "MVLE", "-scale", "0.02",
		"-iters", "6", "-k", "20", "-test-frac", "0", "-seed", "17", "-out", model)

	users := []int{0, 1, 2, 5, 11, 23, 47, 95}
	const n = 10
	// serve starts bin at prec, checks what it reports about itself and
	// returns each user's recommendation: the items and the raw body.
	serve := func(bin, prec, kernel string) (map[int][]int, []string) {
		p := e2e.Start(t, bin, "-model", model, "-precision", prec, "-addr", "127.0.0.1:0")
		base := "http://" + p.WaitLine("alsserve: listening on ")
		if want := "precision=" + prec + " kernel=" + kernel; !strings.Contains(p.Output(), want) {
			t.Fatalf("%s startup output lacks %q:\n%s", prec, want, p.Output())
		}

		var info struct {
			Precision string `json:"precision"`
		}
		e2e.GetJSON(t, base+"/v1/model", &info)
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
			body := e2e.Get(t, fmt.Sprintf("%s/v1/recommend?user=%d&n=%d", base, u, n))
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

		raw := e2e.Scrape(t, base).Text
		for _, want := range []string{
			`als_scorer_precision{precision="` + prec + `"} 1`,
			`als_scan_kernel_info{kernel="` + kernel + `"} 1`,
		} {
			if !strings.Contains(raw, want) {
				t.Fatalf("%s exposition lacks %s", prec, want)
			}
		}
		if quantized := prec != "f32"; quantized != strings.Contains(raw, "als_quant_max_abs_error") {
			t.Fatalf("%s exposition max-abs-error gauge: present=%v", prec, !quantized)
		}
		return tops, bodies
	}

	tops, bodies := map[string]map[int][]int{}, map[string][]string{}
	for _, prec := range []string{"f32", "f16", "i8"} {
		tops[prec], bodies[prec] = serve(alsserve, prec, quant.KernelName())
	}
	if quant.KernelName() != "portable" {
		_, portable := serve(e2e.Build(t, "alsserve", "purego"), "i8", "portable")
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
