//go:build amd64 && !amd64.v3 && !purego

#include "textflag.h"

// Both kernels keep DotWide's order lane for lane: chains s0..s3 are the
// four float64 lanes of one YMM register, and a packed multiply followed by
// a packed add rounds each lane exactly as the scalar multiply and add do.
// They are VEX-encoded AVX with no FMA, so nothing is fused: the bits are
// the portable bodies' in every build. A VEX arithmetic instruction takes an
// unaligned memory operand, so every load is folded into its multiply, and
// every function ends in VZEROUPPER: the SSE2 kernels beside these (and the
// Go code the compiler emits at GOAMD64=v1) would otherwise pay for the dirty
// upper halves on every legacy-SSE instruction.
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

// GROW adds four columns of one G row, at mem, times the direction's four
// (Y8) to the row's chains acc = (s0, s1, s2, s3).
#define GROW(mem, t, acc) \
	VMULPD mem, Y8, t \
	VADDPD t, acc, acc

// GOUT4 finishes four rows a..d: out[i..i+3] = float32(lam·w[i..i+3] + dot),
// each dot (s0+s1)+(s2+s3) of its row's chains, lam in every lane of Y14.
// VHADDPD pairs the chains of two rows within each 128-bit half,
// (a0+a1, b0+b1, a2+a3, b2+b3); the two VPERM2F128 gather the s0+s1 sums
// and the s2+s3 sums of all four rows, and one VADDPD adds them.
#define GOUT4(a, b, c, d, woff, ooff) \
	VHADDPD    b, a, Y9             \
	VHADDPD    d, c, Y10            \
	VPERM2F128 $0x20, Y10, Y9, Y11  \
	VPERM2F128 $0x31, Y10, Y9, Y12  \
	VADDPD     Y12, Y11, Y11        \
	VMULPD     woff(R11), Y14, Y13  \
	VADDPD     Y11, Y13, Y13        \
	VCVTPD2PSY Y13, X13             \
	VMOVUPS    X13, ooff(DX)

// func gemvWideAVX(gw, w *float64, k int, lam float64, out *float32)
//
// Eight G rows per pass share each load of w; each row keeps its four
// chains in one register. k is a positive multiple of 4, so when k ≡ 4
// (mod 8) one pass of four rows ends the matrix.
TEXT ·gemvWideAVX(SB), NOSPLIT, $0-40
	MOVQ         gw+0(FP), SI
	MOVQ         w+8(FP), DI
	MOVQ         k+16(FP), CX
	VBROADCASTSD lam+24(FP), Y14
	MOVQ         out+32(FP), DX
	MOVQ         CX, R8
	SHLQ         $3, R8         // one row of gw in bytes
	LEAQ         (R8)(R8*2), R9 // three rows
	MOVQ         DI, R11        // &w[i]
	MOVQ         CX, R10        // rows left

rows8:
	CMPQ   R10, $8
	JLT    rows4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   SI, AX
	LEAQ   (SI)(R8*4), R13 // row 4
	MOVQ   DI, BX
	MOVQ   CX, R12

	PCALIGN $64
cols8:
	VMOVUPD (BX), Y8
	GROW((AX), Y9, Y0)
	GROW((AX)(R8*1), Y10, Y1)
	GROW((AX)(R8*2), Y11, Y2)
	GROW((AX)(R9*1), Y12, Y3)
	GROW((R13), Y13, Y4)
	GROW((R13)(R8*1), Y15, Y5)
	GROW((R13)(R8*2), Y9, Y6)
	GROW((R13)(R9*1), Y10, Y7)
	ADDQ    $32, AX
	ADDQ    $32, R13
	ADDQ    $32, BX
	SUBQ    $4, R12
	JNZ     cols8

	GOUT4(Y0, Y1, Y2, Y3, 0, 0)
	GOUT4(Y4, Y5, Y6, Y7, 32, 16)
	LEAQ (SI)(R8*8), SI
	ADDQ $64, R11
	ADDQ $32, DX
	SUBQ $8, R10
	JMP  rows8

rows4:
	TESTQ  R10, R10
	JZ     done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, AX
	MOVQ   DI, BX
	MOVQ   CX, R12

	PCALIGN $64
cols4:
	VMOVUPD (BX), Y8
	GROW((AX), Y9, Y0)
	GROW((AX)(R8*1), Y10, Y1)
	GROW((AX)(R8*2), Y11, Y2)
	GROW((AX)(R9*1), Y12, Y3)
	ADDQ    $32, AX
	ADDQ    $32, BX
	SUBQ    $4, R12
	JNZ     cols4

	GOUT4(Y0, Y1, Y2, Y3, 0, 0)

done:
	VZEROUPPER
	RET

// func rank1WideAVX(f *float32, w *float64, k int, wt float64, out *float32)
//
// The dot widens four float32 of f per step into the four chains; wd =
// float32(wt·dot) is then broadcast and out += wd·f runs eight float32
// lanes at a time, with one four-lane step when k ≡ 4 (mod 8), multiply and
// add rounded separately as the Go loop's are.
TEXT ·rank1WideAVX(SB), NOSPLIT, $0-40
	MOVQ   f+0(FP), SI
	MOVQ   w+8(FP), DI
	MOVQ   k+16(FP), CX
	MOVQ   out+32(FP), DX
	VXORPD Y0, Y0, Y0
	MOVQ   SI, AX
	MOVQ   CX, R8

	PCALIGN $64
dot:
	VCVTPS2PD (AX), Y2
	VMULPD    (DI), Y2, Y2
	VADDPD    Y2, Y0, Y0
	ADDQ      $16, AX
	ADDQ      $32, DI
	SUBQ      $4, R8
	JNZ       dot

	// (s0+s1)+(s2+s3), then wd = float32(wt·dot) in every lane of Y7.
	VEXTRACTF128 $1, Y0, X1
	VHADDPD      X1, X0, X0
	VHADDPD      X0, X0, X0
	VMOVSD       wt+24(FP), X7
	VMULSD       X0, X7, X7
	VCVTSD2SS    X7, X7, X7
	VSHUFPS      $0, X7, X7, X7
	VINSERTF128  $1, X7, Y7, Y7

	CMPQ CX, $8
	JLT  tail

	PCALIGN $64
scatter:
	VMULPS  (SI), Y7, Y2
	VADDPS  (DX), Y2, Y2
	VMOVUPS Y2, (DX)
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     scatter

tail:
	TESTQ   CX, CX
	JZ      end
	VMULPS  (SI), X7, X2
	VADDPS  (DX), X2, X2
	VMOVUPS X2, (DX)

end:
	VZEROUPPER
	RET

// func avxSupported() bool
//
// CPUID.1:ECX has OSXSAVE (bit 27) and AVX (bit 28), and XCR0 says the OS
// saves both XMM (bit 1) and YMM (bit 2) state across context switches.
TEXT ·avxSupported(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   no
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no
	MOVB  $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
