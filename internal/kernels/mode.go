package kernels

import "fmt"

// This file extends the cost model with the training-mode dimension. The
// simulated devices execute only the explicit-feedback kernels (Fig. 3 and
// the fused/packed family); the implicit fast paths — shared-Gram rank-1
// corrections, matrix-free CG, iALS++ block sweeps — run on the host. The
// estimator below is how the variant/cost layer still reasons about them:
// it predicts the per-row update work of each (mode, solver, block) point
// so mode selection can be argued analytically and asserted in tests,
// mirroring the wall-clock capture in EXPERIMENTS.md ("implicit-feedback
// training modes").

// ModeSpec names one training-mode configuration of the host solver.
type ModeSpec struct {
	Implicit bool
	// Solver is "chol" (or "ldl" — same cubic cost shape) or "cg".
	Solver string
	// CGIters is the CG budget per row solve (default 3, only with "cg").
	CGIters int
	// BlockSize b > 0 selects iALS++ block-coordinate sweeps (implicit +
	// "chol" only); 0 is the full-width direct solve.
	BlockSize int
}

// ModeCost is the estimated per-row update work in multiply-add flops,
// split the way the stage instrumentation attributes it: assembly (the
// S1+S2 Gram/RHS work) and solve (the S3 factorization or iteration loop).
type ModeCost struct {
	AssembleFlops float64
	SolveFlops    float64
}

// Total is the full per-row estimate.
func (c ModeCost) Total() float64 { return c.AssembleFlops + c.SolveFlops }

// EstimateMode predicts the per-row update cost for a mode configuration
// at latent dimension k and row density omega (nonzeros in the row).
//
// The shapes, matching the host kernels flop for flop at leading order:
//
//	explicit chol/ldl:  ω·k(k+1)/2 + ω·k assembly, k³/6 + k² solve
//	explicit cg:        ω·k RHS, iters·2ωk matrix-free products
//	implicit chol/ldl:  same triangle as explicit — the shared FᵀF base is
//	                    amortized over the half-iteration, each row pays
//	                    only its confidence-weighted rank-1 corrections
//	implicit cg:        ω·k RHS, iters·(k² + 2ωk): the dense G·p product
//	                    plus the per-observation corrections
//	implicit block b:   k² + 2ωk residual/dot maintenance, plus per-sweep
//	                    block fills ω·k·b/2 and ⌈k/b⌉ factorizations b³/6
//	                    — increasing in b, meeting the direct solve at b=k
func EstimateMode(spec ModeSpec, k, omega int) (ModeCost, error) {
	if k <= 0 || omega < 0 {
		return ModeCost{}, fmt.Errorf("kernels: invalid mode estimate shape k=%d omega=%d", k, omega)
	}
	kf, w := float64(k), float64(omega)
	triangle := kf * (kf + 1) / 2
	iters := spec.CGIters
	if iters <= 0 {
		iters = 3
	}
	b := spec.BlockSize
	if b > k {
		b = k
	}
	switch {
	case spec.BlockSize != 0 && (!spec.Implicit || spec.Solver == "cg"):
		return ModeCost{}, fmt.Errorf("kernels: block size needs implicit mode with a direct solver")
	case b > 0:
		bf := float64(b)
		nb := float64((k + b - 1) / b)
		return ModeCost{
			AssembleFlops: kf*kf + 2*w*kf + w*kf*bf/2,
			SolveFlops:    nb * (bf*bf*bf/6 + bf*bf),
		}, nil
	case spec.Solver == "cg":
		per := 2 * w * kf
		if spec.Implicit {
			per += kf * kf
		}
		return ModeCost{
			AssembleFlops: w * kf,
			SolveFlops:    float64(iters) * per,
		}, nil
	default: // "chol"/"ldl" direct, either mode
		return ModeCost{
			AssembleFlops: w*triangle + w*kf,
			SolveFlops:    kf*kf*kf/6 + kf*kf,
		}, nil
	}
}
