package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction: positive means a regression.
func worsening(spec metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / a
	if spec.Better == "higher" {
		d = -d
	}
	return d
}

func readOutput(path string) (*output, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out output
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &out, nil
}

// compareFiles prints, per workload and end-to-end metric, the relative
// change from the first result file to the second, and returns exit code 1
// when any metric got worse by more than its bound, either file has failed
// operations, or a workload is in one file only.
func compareFiles(w io.Writer, man *manifest, pathA, pathB string) int {
	a, err := readOutput(pathA)
	if err == nil {
		var b *output
		if b, err = readOutput(pathB); err == nil {
			return compareOutputs(w, man, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareOutputs(w io.Writer, man *manifest, a, b *output) int {
	code := 0
	for _, name := range sortedKeys(a.Workloads) {
		if b.Workloads[name] == nil {
			fmt.Fprintf(w, "%s\n  MISSING from the second file\n", name)
			code = 1
		}
	}
	for _, name := range sortedKeys(b.Workloads) {
		ra, rb := a.Workloads[name], b.Workloads[name]
		fmt.Fprintf(w, "%s\n", name)
		if ra == nil {
			fmt.Fprintln(w, "  MISSING from the first file")
			code = 1
			continue
		}
		if ra.Traced || rb.Traced {
			fmt.Fprintln(w, "  NOT COMPARABLE: a traced run carries no end-to-end metrics")
			code = 1
			continue
		}
		for i, r := range []*result{ra, rb} {
			if r.Failed > 0 || !r.Correct {
				fmt.Fprintf(w, "  FAILED operations in the %s file: %d of %d\n", [...]string{"first", "second"}[i], r.Failed, r.Attempted)
				code = 1
			}
		}
		for _, spec := range man.EndToEnd {
			va, vb := ra.Metrics[spec.Name].Value, rb.Metrics[spec.Name].Value
			d := worsening(spec, va, vb)
			verdict := "ok"
			if d > spec.Bound {
				verdict, code = "WORSE PAST BOUND", 1
			}
			direction := "worse"
			if d < 0 {
				direction = "better"
			}
			fmt.Fprintf(w, "  %-24s %12.6g -> %12.6g %-5s %6.2f%% %-6s (bound %.0f%%) %s\n",
				spec.Name, va, vb, spec.Unit, 100*math.Abs(d), direction, 100*spec.Bound, verdict)
		}
	}
	return code
}

// repeat runs the untraced suite k times on consecutive seeds — the
// driver's own protocol — and prints each metric's spread next to its
// bound: the interquartile range and the full range, both as a share of
// the median. Exit code 1 when an interquartile spread exceeds its bound
// or any run had a failed operation.
func (rn *runner) repeat(w io.Writer, names []string, seed int64, k int) int {
	vals := map[string]map[string][]float64{}
	code := 0
	for i := 0; i < k; i++ {
		out, err := rn.run(names, seed+int64(i), false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		for name, res := range out.Workloads {
			if vals[name] == nil {
				vals[name] = map[string][]float64{}
			}
			for m, v := range res.Metrics {
				vals[name][m] = append(vals[name][m], v.Value)
			}
			if !res.Correct {
				fmt.Fprintf(w, "run %d, %s: %d failed operations: %v\n", i, name, res.Failed, res.Failures)
				code = 1
			}
		}
	}
	for _, name := range names {
		fmt.Fprintf(w, "%s (%d runs)\n", name, k)
		for _, spec := range rn.man.EndToEnd {
			iqr, rng := spread(vals[name][spec.Name])
			verdict := "ok"
			switch {
			case iqr > spec.Bound:
				verdict, code = "SPREAD PAST BOUND", 1
			case iqr > spec.Bound/2:
				verdict = "over half the bound"
			}
			fmt.Fprintf(w, "  %-24s median %12.6g %-5s iqr %5.2f%% range %5.2f%% (bound %.0f%%) %s\n",
				spec.Name, median(vals[name][spec.Name]), spec.Unit, 100*iqr, 100*rng, 100*spec.Bound, verdict)
		}
	}
	return code
}
