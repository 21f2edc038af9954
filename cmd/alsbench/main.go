// alsbench reproduces the paper's tables and figures on the simulated
// devices and prints them in a readable form.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/rtrace"
	"repro/internal/tuner"
)

func main() {
	exp := flag.String("experiment", "all", "which experiment to run: table1,fig1,fig6,fig7,fig8,fig9,fig10,tune,ksweep,convergence,multigpu,cluster or all (comma-separated)")
	scale := flag.Float64("scale", 1, "extra scale factor on the per-dataset defaults")
	iters := flag.Int("iters", 5, "ALS iterations")
	k := flag.Int("k", 10, "latent factor")
	lambda := flag.Float64("lambda", 0.1, "regularization")
	seed := flag.Int64("seed", 2017, "dataset + init seed")
	debugAddr := flag.String("debug-addr", "", "serve live /metrics (process health) and /debug/pprof on this address while the experiments run")
	var prof obs.ProfileFlags
	prof.Register(flag.CommandLine)
	flag.Parse()

	s := experiments.Defaults()
	s.Scale = *scale
	s.Iterations = *iters
	s.K = *k
	s.Lambda = float32(*lambda)
	s.Seed = *seed

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "alsbench:", err)
		os.Exit(1)
	}
	if err := prof.Start(); err != nil {
		fail(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "alsbench:", err)
		}
	}()
	if *debugAddr != "" {
		dbg, err := rtrace.ServeDebug(*debugAddr, nil, obs.DebugConfig{Registry: obs.NewRegistry()})
		if err != nil {
			fail(err)
		}
		defer dbg.Close()
	}
	if all || want["table1"] {
		t, err := experiments.Table1(s)
		if err != nil {
			fail(err)
		}
		t.Fprint(os.Stdout)
	}
	if all || want["fig1"] {
		t, err := experiments.Fig1(s)
		if err != nil {
			fail(err)
		}
		t.Fprint(os.Stdout)
	}
	if all || want["fig6"] {
		ts, err := experiments.Fig6(s)
		if err != nil {
			fail(err)
		}
		for _, t := range ts {
			t.Fprint(os.Stdout)
		}
	}
	if all || want["fig7"] {
		t, err := experiments.Fig7(s)
		if err != nil {
			fail(err)
		}
		t.Fprint(os.Stdout)
	}
	if all || want["fig8"] {
		t, err := experiments.Fig8(s)
		if err != nil {
			fail(err)
		}
		t.Fprint(os.Stdout)
	}
	if all || want["fig9"] {
		t, err := experiments.Fig9(s)
		if err != nil {
			fail(err)
		}
		t.Fprint(os.Stdout)
	}
	if all || want["tune"] {
		// The hotspot-guided tuning walk of Sec. V-C (Fig. 8's narrative),
		// on Netflix/K20c.
		ds := dataset.Netflix.ScaledForBench(0.002 * s.Scale).Generate(s.Seed)
		steps, final, err := tuner.Tune(ds.Matrix, kernels.Config{
			Device: device.K20c(), K: s.K, Iterations: s.Iterations,
		})
		if err != nil {
			fail(err)
		}
		fmt.Println("== tune: hotspot-guided optimization (Netflix on K20c) ==")
		for _, st := range steps {
			fmt.Println("  " + st.String())
		}
		fmt.Printf("  final spec: %s\n\n", final.Name())
	}
	if all || want["ksweep"] {
		t, err := experiments.KSweep(s, nil)
		if err != nil {
			fail(err)
		}
		t.Fprint(os.Stdout)
	}
	if want["convergence"] {
		// Extension (not part of -experiment all: it retrains many times).
		t, err := experiments.Convergence(s, 10)
		if err != nil {
			fail(err)
		}
		t.Fprint(os.Stdout)
	}
	if want["multigpu"] {
		t, err := experiments.MultiGPU(s)
		if err != nil {
			fail(err)
		}
		t.Fprint(os.Stdout)
	}
	if want["cluster"] {
		t, err := experiments.Cluster(s)
		if err != nil {
			fail(err)
		}
		t.Fprint(os.Stdout)
	}
	if all || want["fig10"] {
		ts, err := experiments.Fig10(s)
		if err != nil {
			fail(err)
		}
		for _, t := range ts {
			t.Fprint(os.Stdout)
		}
	}
}
