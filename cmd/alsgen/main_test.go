package main_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/e2e"
)

// TestScaleAboveOne: alsgen -scale grows a preset as alstrain -preset
// -scale does (bench scaling at any scale but 1), so the file it writes is
// the dataset alstrain trains on; -density-preserving cannot grow one and
// is refused.
func TestScaleAboveOne(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the alsgen binary")
	}
	alsgen := e2e.Build(t, "alsgen")
	mx := dataset.YahooR4.ScaledForBench(2).Generate(2017).Matrix
	want := fmt.Sprintf("YMR4: m=%d n=%d nnz=%d", mx.Rows(), mx.Cols(), mx.NNZ())
	if out := e2e.Run(t, alsgen, "-preset", "YMR4", "-scale", "2", "-out", "/dev/null"); !strings.Contains(out, want) {
		t.Errorf("alsgen -scale 2 printed\n%s\nwant the line %q", out, want)
	}
	p := e2e.Start(t, alsgen, "-preset", "YMR4", "-scale", "2", "-density-preserving", "-out", "/dev/null")
	if code := p.Wait(); code == 0 || !strings.Contains(p.Output(), "-density-preserving only shrinks") {
		t.Errorf("-density-preserving -scale 2: exit %d, output:\n%s", code, p.Output())
	}
}
