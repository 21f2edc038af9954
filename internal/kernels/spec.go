// Package kernels is the cost model of the paper's ALS update kernels on
// the simulated devices: the flat one-thread-per-row baseline (SAC'15) and
// the thread-batched kernel family with the register / local-memory /
// vector optimizations individually applicable per stage.
//
// A kernel here is a cost pass: for each row it charges device.Counters
// describing the memory-access pattern and lock-step execution shape of the
// update on the target device — a function of the row's length — and
// internal/sim turns those into simulated execution times (Estimate,
// EstimateMulti). The package returns a clock and nothing else. A simulated
// run's factors are internal/host's, computed by core.Train with the
// variant the spec came from: staging and the S3 form move cycles, never a
// bit. The cost formulas and their rationale are documented in cost.go and
// DESIGN.md §5.
package kernels

import (
	"repro/internal/variant"
)

// Spec selects the kernel implementation per stage. The zero value is the
// bare thread-batched kernel with the Cholesky S3 (the paper's starting
// point after Sec. III-B).
type Spec struct {
	// Flat selects the SAC'15 baseline: one work-item per row, private
	// k×k scratch, scattered accesses. All other toggles are ignored.
	Flat bool

	// S1Local stages the gathered rows of the fixed factor in local memory
	// for the YᵀY step; S2Local reuses the stage (or builds one) for Yᵀr_u.
	S1Local bool
	S2Local bool
	// S1Register uses the Fig. 3b k-strip accumulator restructuring.
	S1Register bool
	// Vector issues the inner loops through explicit wide vector ops.
	Vector bool
	// S3Gauss replaces the Cholesky solve with the generic Gaussian
	// elimination the tuning narrative of Sec. V-C starts from.
	S3Gauss bool
	// Fused computes S1 and S2 in one sweep over the gathered rows with a
	// packed upper-triangular accumulator, and runs S3 as a packed
	// Cholesky. Subsumes S1Register (the packed strip is the register
	// form); composes with S1Local/S2Local staging and Vector.
	Fused bool
}

// FromVariant maps one of the paper's 8 code variants onto a per-stage spec
// (optimizations apply to the stages the paper applies them to: local to S1
// and S2, registers to S1, vectors to all compute loops).
func FromVariant(v variant.Options) Spec {
	return Spec{
		S1Local:    v.Local,
		S2Local:    v.Local,
		S1Register: v.Register,
		Vector:     v.Vector,
		Fused:      v.Fused,
	}
}

// Baseline returns the SAC'15 flat-kernel spec.
func Baseline() Spec { return Spec{Flat: true} }

// Name renders the spec the way the figures label it.
func (s Spec) Name() string {
	if s.Flat {
		return "flat baseline"
	}
	v := variant.Options{Local: s.S1Local || s.S2Local, Register: s.S1Register && !s.Fused,
		Vector: s.Vector, Fused: s.Fused}
	n := v.String()
	if s.S3Gauss {
		n += " (gauss S3)"
	}
	return n
}
