//go:build amd64 && !amd64.v3 && !purego

#include "textflag.h"

// STEP subtracts u times the float32 at off(row)(R11*4), widened, from acc:
// two of them as the two float64 lanes of a register (MOVSD, CVTPS2PD,
// MULPD, SUBPD) or one (MOVSS, CVTSS2SD, MULSD, SUBSD). The product of two
// widened float32 is exact, and the subtraction rounds each lane as the Go
// loop's does.
#define STEP(ld, cvt, mul, sub, off, row, u, acc, t) \
	ld  off(row)(R11*4), t \
	cvt t, t               \
	mul u, t               \
	sub t, acc

// WIDEN broadcasts the float32 at mem, widened, to both lanes of u.
#define WIDEN(mem, u) \
	MOVSS    mem, u \
	CVTSS2SD u, u   \
	UNPCKLPD u, u

// func cholSweepSSE2(col *float32, k, j int, acc *float64)
//
// acc[i] −= float64(U[q][j])·float64(U[q][j+i]) for q = 0..j−1, the strip
// in the inner loop. SI is &U[q][j], the start of row q's tail; row q+1's is
// R8 = k−q−1 floats on. Rows go two to a pass — acc[i] loses row q's term,
// then row q+1's, between one load and one store — and an odd j's last row
// goes alone. R11 is the element index: four per step, then two, then one.
TEXT ·cholSweepSSE2(SB), NOSPLIT, $0-32
	MOVQ col+0(FP), SI
	MOVQ k+8(FP), R8
	MOVQ j+16(FP), R9  // rows left
	MOVQ acc+24(FP), DI
	MOVQ R8, R10
	SUBQ R9, R10       // strip length k − j
	DECQ R8
	SUBQ $2, R9
	JL   last

pair:
	LEAQ (SI)(R8*4), R13
	WIDEN((SI), X0)
	WIDEN((R13), X5)
	XORQ R11, R11
	MOVQ R10, CX
	SUBQ $4, CX
	JL   pairtwo

	// Pinned to a cache line: wide_amd64.s says why.
	PCALIGN $64
pairfour:
	MOVUPD (DI)(R11*8), X3
	MOVUPD 16(DI)(R11*8), X4
	STEP(MOVSD, CVTPS2PD, MULPD, SUBPD, 0, SI, X0, X3, X1)
	STEP(MOVSD, CVTPS2PD, MULPD, SUBPD, 8, SI, X0, X4, X2)
	STEP(MOVSD, CVTPS2PD, MULPD, SUBPD, 0, R13, X5, X3, X1)
	STEP(MOVSD, CVTPS2PD, MULPD, SUBPD, 8, R13, X5, X4, X2)
	MOVUPD X3, (DI)(R11*8)
	MOVUPD X4, 16(DI)(R11*8)
	ADDQ   $4, R11
	SUBQ   $4, CX
	JGE    pairfour

pairtwo:
	TESTQ  $2, CX
	JZ     pairone
	MOVUPD (DI)(R11*8), X3
	STEP(MOVSD, CVTPS2PD, MULPD, SUBPD, 0, SI, X0, X3, X1)
	STEP(MOVSD, CVTPS2PD, MULPD, SUBPD, 0, R13, X5, X3, X1)
	MOVUPD X3, (DI)(R11*8)
	ADDQ   $2, R11

pairone:
	TESTQ $1, CX
	JZ    pairnext
	MOVSD (DI)(R11*8), X3
	STEP(MOVSS, CVTSS2SD, MULSD, SUBSD, 0, SI, X0, X3, X1)
	STEP(MOVSS, CVTSS2SD, MULSD, SUBSD, 0, R13, X5, X3, X1)
	MOVSD X3, (DI)(R11*8)

pairnext:
	LEAQ -4(R13)(R8*4), SI // row q+2's tail is k−q−2 floats after row q+1's
	SUBQ $2, R8
	SUBQ $2, R9
	JGE  pair

last:
	TESTQ $1, R9
	JZ    done
	WIDEN((SI), X0)
	XORQ  R11, R11
	MOVQ  R10, CX
	SUBQ  $4, CX
	JL    lasttwo

lastfour:
	MOVUPD (DI)(R11*8), X3
	MOVUPD 16(DI)(R11*8), X4
	STEP(MOVSD, CVTPS2PD, MULPD, SUBPD, 0, SI, X0, X3, X1)
	STEP(MOVSD, CVTPS2PD, MULPD, SUBPD, 8, SI, X0, X4, X2)
	MOVUPD X3, (DI)(R11*8)
	MOVUPD X4, 16(DI)(R11*8)
	ADDQ   $4, R11
	SUBQ   $4, CX
	JGE    lastfour

lasttwo:
	TESTQ  $2, CX
	JZ     lastone
	MOVUPD (DI)(R11*8), X3
	STEP(MOVSD, CVTPS2PD, MULPD, SUBPD, 0, SI, X0, X3, X1)
	MOVUPD X3, (DI)(R11*8)
	ADDQ   $2, R11

lastone:
	TESTQ $1, CX
	JZ    done
	MOVSD (DI)(R11*8), X3
	STEP(MOVSS, CVTSS2SD, MULSD, SUBSD, 0, SI, X0, X3, X1)
	MOVSD X3, (DI)(R11*8)

done:
	RET
