package main_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/e2e"
)

// TestExperimentAllGolden pins the reproduction's tables and figures: every
// number alsbench -experiment all prints comes from the cost model and the
// simulator, which are deterministic, so the output is compared byte for
// byte. The default, purego and GOAMD64=v3 builds print the same bytes.
func TestExperimentAllGolden(t *testing.T) {
	const golden = "testdata/experiment_all.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got := e2e.Run(t, e2e.Build(t, "alsbench"), "-experiment", "all") + "\n"
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("alsbench -experiment all differs from %s at line %d:\ngot:  %q\nwant: %q\n"+
				"if the change is intended, regenerate with: go run ./cmd/alsbench -experiment all > cmd/alsbench/%s",
				golden, i+1, g, w, golden)
		}
	}
}
