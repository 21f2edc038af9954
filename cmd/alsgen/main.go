// alsgen generates a synthetic rating dataset from one of the Table I
// presets (shape-matched to Movielens10M / Netflix / YahooMusic R1 / R4)
// and writes it as zero-based `<user item rating>` text triples.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dataset"
	"repro/internal/sparse"
)

func main() {
	preset := flag.String("preset", "YMR4", "MVLE, NTFX, YMR1 or YMR4")
	scale := flag.Float64("scale", 1.0, "scale factor: <1 shrinks the dataset, >1 grows it (bench scaling, as alstrain -preset -scale)")
	densityPreserving := flag.Bool("density-preserving", false, "use density-preserving scaling instead of degree-preserving bench scaling (shrinks only)")
	seed := flag.Int64("seed", 2017, "generator seed")
	out := flag.String("out", "", "output path for the text triples; default stdout")
	stats := flag.Bool("stats", true, "print degree statistics to stderr")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "alsgen:", err)
		os.Exit(1)
	}

	p, err := dataset.PresetByName(*preset)
	if err != nil {
		fail(err)
	}
	switch {
	case *scale <= 0:
		fail(fmt.Errorf("-scale %g must be positive", *scale))
	case *scale == 1:
	case *densityPreserving && *scale > 1:
		fail(fmt.Errorf("-density-preserving only shrinks; -scale %g grows the preset", *scale))
	case *densityPreserving:
		p = p.Scaled(*scale)
	default:
		p = p.ScaledForBench(*scale)
	}
	ds := p.Generate(*seed)
	mx := ds.Matrix

	if *stats {
		rs := sparse.RowStats(mx.R)
		cs := sparse.ColStats(mx.C)
		fmt.Fprintf(os.Stderr, "%s: m=%d n=%d nnz=%d\n", p.Name, mx.Rows(), mx.Cols(), mx.NNZ())
		fmt.Fprintf(os.Stderr, "rows: %s\ncols: %s\n", rs, cs)
		fmt.Fprintf(os.Stderr, "warp imbalance (32 lanes): %.2f\n", sparse.WarpImbalance(mx.R, 32))
	}

	var w *os.File = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	if err := sparse.WriteTriples(w, mx.R); err != nil {
		fail(err)
	}
}
