package tuner

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/sim"
)

func tuneConfig() kernels.Config {
	return kernels.Config{Device: device.K20c(), K: 10, Iterations: 1}
}

func tuneMatrix(t testing.TB) *dataset.Dataset {
	t.Helper()
	return dataset.Netflix.ScaledForBench(0.002).Generate(17)
}

// TestTuneRetracesFig8: the hotspot-guided loop must (a) start with S1
// dominant, (b) optimize S1 first, (c) strictly reduce total time at every
// accepted step, and (d) finish with every optimization applied.
func TestTuneRetracesFig8(t *testing.T) {
	ds := tuneMatrix(t)
	steps, final, err := Tune(ds.Matrix, tuneConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) < 3 {
		t.Fatalf("only %d tuning steps", len(steps))
	}
	if steps[0].Hotspot != sim.S1 {
		t.Fatalf("first hotspot = %s, want S1 (paper: ~70%%)", steps[0].Hotspot)
	}
	if steps[0].Applied == "" || steps[0].Applied[:2] != "S1" {
		t.Fatalf("first optimization %q does not target S1", steps[0].Applied)
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].Seconds >= steps[i-1].Seconds {
			t.Errorf("step %d did not improve: %.4f -> %.4f (%s)",
				i, steps[i-1].Seconds, steps[i].Seconds, steps[i-1].Applied)
		}
	}
	if !final.S1Local || !final.S1Register || !final.S2Local || final.S3Gauss {
		t.Fatalf("final spec incomplete: %+v", final)
	}
	// The last step reports no further optimization.
	if steps[len(steps)-1].Applied != "" {
		t.Fatalf("tuner did not converge: last applied %q", steps[len(steps)-1].Applied)
	}
}

// TestTuneShiftsHotspotToS2: after the S1 optimizations the hotspot must
// move to S2 (the Fig. 8 b→c transition).
func TestTuneShiftsHotspotToS2(t *testing.T) {
	ds := tuneMatrix(t)
	steps, _, err := Tune(ds.Matrix, tuneConfig())
	if err != nil {
		t.Fatal(err)
	}
	sawS2 := false
	for _, st := range steps {
		if st.Spec.S1Local && st.Spec.S1Register && st.Hotspot == sim.S2 {
			sawS2 = true
		}
	}
	if !sawS2 {
		t.Fatal("hotspot never moved to S2 after optimizing S1")
	}
}

func TestStepString(t *testing.T) {
	ds := tuneMatrix(t)
	steps, _, err := Tune(ds.Matrix, tuneConfig())
	if err != nil {
		t.Fatal(err)
	}
	if steps[0].String() == "" {
		t.Fatal("empty step string")
	}
}

// TestApplyFallbacks exercises the remaining-optimization fallback paths of
// the tuner's apply step directly.
func TestApplyFallbacks(t *testing.T) {
	// S1 fully optimized but still the hotspot: fall through to whatever
	// remains, in S3 -> S2 -> done order.
	spec := kernels.Spec{S1Local: true, S1Register: true, S3Gauss: true}
	next, applied := apply(spec, sim.S1)
	if applied == "" || next.S3Gauss {
		t.Fatalf("fallback did not pick Cholesky: %q %+v", applied, next)
	}
	next2, applied2 := apply(next, sim.S1)
	if applied2 == "" || !next2.S2Local {
		t.Fatalf("fallback did not pick S2 staging: %q %+v", applied2, next2)
	}
	if _, applied3 := apply(next2, sim.S1); applied3 != "" {
		t.Fatalf("fully optimized spec still applied %q", applied3)
	}
	// S2 hotspot with S2 already staged.
	full := kernels.Spec{S1Local: true, S1Register: true, S2Local: true}
	if _, a := apply(full, sim.S2); a != "" {
		t.Fatalf("S2 fallback applied %q on fully optimized spec", a)
	}
	// S3 hotspot with Gauss still on.
	g := kernels.Spec{S3Gauss: true}
	n, a := apply(g, sim.S3)
	if a == "" || n.S3Gauss {
		t.Fatalf("S3 hotspot did not switch to Cholesky: %q", a)
	}
	// Fallback ordering when only S1 options remain.
	s1only := kernels.Spec{S2Local: true}
	n, a = apply(s1only, sim.S2)
	if a == "" || !n.S1Local {
		t.Fatalf("fallback did not reach S1 local: %q %+v", a, n)
	}
	n2, a2 := apply(n, sim.S2)
	if a2 == "" || !n2.S1Register {
		t.Fatalf("fallback did not reach S1 registers: %q %+v", a2, n2)
	}
}
