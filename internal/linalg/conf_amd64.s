//go:build amd64 && !amd64.v3 && !purego

#include "textflag.h"

// func axpy32SSE2(w float32, f, out *float32, n int)
//
// out[i] += w·f[i] in float32 — rank1WideSSE2's scatter with every n handled:
// eight elements per step, then four, then one at a time (n = 0 touches
// nothing). Vertical, so the lanes round as the Go loop's MULSS and ADDSS do.
TEXT ·axpy32SSE2(SB), NOSPLIT, $0-32
	MOVSS  w+0(FP), X0
	SHUFPS $0, X0, X0
	MOVQ   f+8(FP), SI
	MOVQ   out+16(FP), DI
	MOVQ   n+24(FP), CX
	SUBQ   $8, CX
	JL     tail4

	// Pinned to a cache line: wide_amd64.s says why.
	PCALIGN $64
loop8:
	MOVUPS (SI), X1
	MOVUPS 16(SI), X2
	MOVUPS (DI), X3
	MOVUPS 16(DI), X4
	MULPS  X0, X1
	MULPS  X0, X2
	ADDPS  X1, X3
	ADDPS  X2, X4
	MOVUPS X3, (DI)
	MOVUPS X4, 16(DI)
	ADDQ   $32, SI
	ADDQ   $32, DI
	SUBQ   $8, CX
	JGE    loop8

tail4:
	TESTQ  $4, CX
	JZ     tail1
	MOVUPS (SI), X1
	MOVUPS (DI), X3
	MULPS  X0, X1
	ADDPS  X1, X3
	MOVUPS X3, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI

tail1:
	ANDQ $3, CX
	JZ   done

one:
	MOVSS (SI), X1
	MOVSS (DI), X3
	MULSS X0, X1
	ADDSS X1, X3
	MOVSS X3, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JNZ   one

done:
	RET
