// Package tuner implements the paper's hotspot-guided tuning methodology
// (Sec. V-C): profile the three stages of the ALS update, find the most
// time-consuming one, apply that stage's optimization, and repeat. The
// sequence it discovers on the GPU retraces Fig. 8: S1 dominates (~70 %),
// optimizing S1 promotes S2 to the hotspot, optimizing S2 brings S1 back,
// and switching S3 to Cholesky trims the remainder. Each round reads the
// stage shares off the simulator's cost pass (kernels.Estimate); nothing is
// factorized to take a measurement.
package tuner

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/sparse"
)

// Step records one round of the tuner: what it measured, which stage it
// chose, and what it applied.
type Step struct {
	Spec    kernels.Spec
	Shares  [3]float64 // S1/S2/S3 shares before acting
	Seconds float64
	Hotspot sim.Stage
	Applied string // optimization applied, "" when nothing is left
}

// String renders the step like the Fig. 8 captions.
func (s Step) String() string {
	return fmt.Sprintf("%-40s S1=%4.1f%% S2=%4.1f%% S3=%4.1f%% total=%.4fs hotspot=%s applied=%q",
		s.Spec.Name(), s.Shares[0]*100, s.Shares[1]*100, s.Shares[2]*100, s.Seconds, s.Hotspot, s.Applied)
}

// Tune runs the hotspot-guided loop starting from the bare thread-batched
// kernel with the generic S3 (the paper's starting point after batching).
// It stops when the hotspot stage has no remaining optimization, and
// returns every step plus the final spec.
func Tune(mx *sparse.Matrix, cfg kernels.Config) ([]Step, kernels.Spec, error) {
	spec := kernels.Spec{S3Gauss: true}
	var steps []Step
	for round := 0; round < 6; round++ {
		cfg.Spec = spec
		res, err := kernels.Estimate(mx, cfg)
		if err != nil {
			return nil, spec, fmt.Errorf("tuner: round %d: %w", round, err)
		}
		st := Step{Spec: spec, Shares: res.Report.StageShare(), Seconds: res.Seconds()}
		st.Hotspot = hotspot(st.Shares)
		next, applied := apply(spec, st.Hotspot)
		st.Applied = applied
		steps = append(steps, st)
		if applied == "" {
			return steps, spec, nil
		}
		spec = next
	}
	return steps, spec, nil
}

func hotspot(shares [3]float64) sim.Stage {
	best := sim.S1
	for s := sim.S2; s <= sim.S3; s++ {
		if shares[s] > shares[best] {
			best = s
		}
	}
	return best
}

// apply returns the spec with the hotspot stage's next optimization turned
// on, or applied == "" if that stage is fully optimized. Optimizations
// follow the paper's S1 → registers+local, S2 → local staging,
// S3 → Cholesky ordering.
func apply(spec kernels.Spec, hot sim.Stage) (kernels.Spec, string) {
	switch hot {
	case sim.S1:
		switch {
		case !spec.S1Local:
			spec.S1Local = true
			return spec, "S1: stage Y columns in local memory"
		case !spec.S1Register:
			spec.S1Register = true
			return spec, "S1: k-strip register accumulators"
		}
	case sim.S2:
		if !spec.S2Local {
			spec.S2Local = true
			return spec, "S2: stage row values in local memory"
		}
	case sim.S3:
		if spec.S3Gauss {
			spec.S3Gauss = false
			return spec, "S3: Cholesky LL^T factorization"
		}
	}
	// The hotspot has nothing left: try any remaining optimization once
	// (mirrors the paper finishing with the Cholesky S3 even though S1
	// still dominates).
	switch {
	case spec.S3Gauss:
		spec.S3Gauss = false
		return spec, "S3: Cholesky LL^T factorization"
	case !spec.S2Local:
		spec.S2Local = true
		return spec, "S2: stage row values in local memory"
	case !spec.S1Local:
		spec.S1Local = true
		return spec, "S1: stage Y columns in local memory"
	case !spec.S1Register:
		spec.S1Register = true
		return spec, "S1: k-strip register accumulators"
	}
	return spec, ""
}
