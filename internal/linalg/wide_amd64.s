//go:build amd64 && !amd64.v3 && !purego

#include "textflag.h"

// Both kernels keep DotWide's order lane for lane: chains s0 and s1 are
// the two float64 lanes of one register, s2 and s3 of another, and a packed
// multiply followed by a packed add rounds each lane exactly as the scalar
// multiply and add do. Every memory access is an unaligned MOVUPD / MOVUPS /
// MOVSD load or store into a register — never a memory operand of an
// arithmetic instruction, which legacy SSE requires to be 16-byte aligned.
//
// Every hot loop here and in fused_amd64.s and packed_amd64.s is pinned to a
// cache line with PCALIGN $64 (which also aligns the function's entry to 64).
// Go's linker aligns text symbols to 32 bytes, so without it which half of a
// line a loop starts in depends on the size of whatever was linked ahead of
// it, and that has been worth 6–9 % of a training run twice: PR 25 moved
// GramRHSFusedUnrolled from ≡ 0 to ≡ 32 (mod 64) by deleting an unrelated
// function, and PR 26's first prototype moved these three by adding an
// assembly file (EXPERIMENTS.md). `make ci` checks the symbols under two
// -randlayout seeds.

// GROW adds four columns of one G row, at mem and 16+mem, times the
// direction's (X8: w[j], w[j+1]; X9: w[j+2], w[j+3]) to the row's chains:
// lo = (s0, s1), hi = (s2, s3).
#define GROW(mem, mem16, t0, t1, lo, hi) \
	MOVUPD mem, t0   \
	MOVUPD mem16, t1 \
	MULPD  X8, t0    \
	MULPD  X9, t1    \
	ADDPD  t0, lo    \
	ADDPD  t1, hi

// HSUM leaves (s0+s1)+(s2+s3) in the low lane of lo.
#define HSUM(lo, hi, t0, t1) \
	MOVAPD   lo, t0 \
	UNPCKHPD t0, t0 \
	ADDSD    t0, lo \
	MOVAPD   hi, t1 \
	UNPCKHPD t1, t1 \
	ADDSD    t1, hi \
	ADDSD    hi, lo

// GOUT finishes one row: out[i] = float32(lam·w[i] + dot), lam in X14.
#define GOUT(lo, hi, woff, ooff) \
	HSUM(lo, hi, X8, X9)  \
	MOVSD    woff(R11), X8 \
	MULSD    X14, X8       \
	ADDSD    lo, X8        \
	CVTSD2SS X8, X8        \
	MOVSS    X8, ooff(DX)

// func gemvWideSSE2(gw, w *float64, k int, lam float64, out *float32)
//
// Four G rows per pass share the two loads of w; each row keeps its own
// register pair of chains. k is a positive multiple of 4, so the rows come
// out even too.
TEXT ·gemvWideSSE2(SB), NOSPLIT, $0-40
	MOVQ  gw+0(FP), SI
	MOVQ  w+8(FP), DI
	MOVQ  k+16(FP), CX
	MOVSD lam+24(FP), X14
	MOVQ  out+32(FP), DX
	MOVQ  CX, R8
	SHLQ  $3, R8         // one row of gw in bytes
	LEAQ  (R8)(R8*2), R9 // three rows
	MOVQ  DI, R11        // &w[i]
	MOVQ  CX, R10        // rows left

rows:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	MOVQ  SI, AX
	MOVQ  DI, BX
	MOVQ  CX, R12

	PCALIGN $64
cols:
	MOVUPD (BX), X8
	MOVUPD 16(BX), X9
	GROW((AX), 16(AX), X10, X11, X0, X1)
	GROW((AX)(R8*1), 16(AX)(R8*1), X12, X13, X2, X3)
	GROW((AX)(R8*2), 16(AX)(R8*2), X10, X11, X4, X5)
	GROW((AX)(R9*1), 16(AX)(R9*1), X12, X13, X6, X7)
	ADDQ   $32, AX
	ADDQ   $32, BX
	SUBQ   $4, R12
	JNZ    cols

	GOUT(X0, X1, 0, 0)
	GOUT(X2, X3, 8, 4)
	GOUT(X4, X5, 16, 8)
	GOUT(X6, X7, 24, 12)
	LEAQ (SI)(R8*4), SI
	ADDQ $32, R11
	ADDQ $16, DX
	SUBQ $4, R10
	JNZ  rows
	RET

// func rank1WideSSE2(f *float32, w *float64, k int, wt float64, out *float32)
//
// The dot widens four float32 of f per step (CVTPS2PD takes the low two of
// a register, so each pair is loaded on its own: MOVSD zeroes the rest and
// carries no dependency from the last step) into the same four chains; wd =
// float32(wt·dot) is then broadcast and out += wd·f runs four float32 lanes
// at a time, multiply and add rounded separately as the Go loop's are.
TEXT ·rank1WideSSE2(SB), NOSPLIT, $0-40
	MOVQ  f+0(FP), SI
	MOVQ  w+8(FP), DI
	MOVQ  k+16(FP), CX
	MOVSD wt+24(FP), X7
	MOVQ  out+32(FP), DX
	XORPS X0, X0
	XORPS X1, X1
	MOVQ  SI, AX
	MOVQ  CX, R8

	PCALIGN $64
dot:
	MOVSD    (AX), X2
	MOVSD    8(AX), X3
	CVTPS2PD X2, X2
	CVTPS2PD X3, X3
	MOVUPD   (DI), X4
	MOVUPD   16(DI), X5
	MULPD    X4, X2
	MULPD    X5, X3
	ADDPD    X2, X0
	ADDPD    X3, X1
	ADDQ     $16, AX
	ADDQ     $32, DI
	SUBQ     $4, R8
	JNZ      dot

	HSUM(X0, X1, X2, X3)
	MULSD    X0, X7
	CVTSD2SS X7, X7
	SHUFPS   $0, X7, X7

	PCALIGN $64
scatter:
	MOVUPS (SI), X2
	MOVUPS (DX), X3
	MULPS  X7, X2
	ADDPS  X2, X3
	MOVUPS X3, (DX)
	ADDQ   $16, SI
	ADDQ   $16, DX
	SUBQ   $4, CX
	JNZ    scatter
	RET
