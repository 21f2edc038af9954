//go:build amd64 && !amd64.v3 && !purego

#include "textflag.h"

// The serving scan's float32 screen. Each of the eight rows owns one
// accumulator of four float32 lanes, lane m summing the products of the
// components j ≡ m (mod 4) in j order; MULPS rounds each product to float32
// and ADDPS each sum, as screen8Values' explicit conversion does. A 4 × 4
// transpose-add then reduces four rows at once to (l0 + l2) + (l1 + l3) per
// row, and CMPPS compares all four against the cut.

// ROW adds components j..j+3 of one row into its accumulator, with X8 the
// query's components j..j+3.
#define ROW(m, acc) \
	MOVUPS m, X9  \
	MULPS  X8, X9 \
	ADDPS  X9, acc

// REDUCE turns the accumulators a, b, c, d of four rows into their values
// in a's lanes 0-3. UNPCKLPS/UNPCKHPS pair lane m of a with lane m of b
// (never lanes of different rows in one sum): a = (a0+a2, b0+b2, a1+a3,
// b1+b3) and c likewise for rows c, d; MOVLHPS and MOVHLPS gather the
// (l0+l2) and (l1+l3) halves of all four rows, and the last add joins them.
#define REDUCE(a, b, c, d, t0, t1) \
	MOVAPS   a, t0 \
	UNPCKLPS b, a  \
	UNPCKHPS b, t0 \
	ADDPS    t0, a \
	MOVAPS   c, t1 \
	UNPCKLPS d, c  \
	UNPCKHPS d, t1 \
	ADDPS    t1, c \
	MOVAPS   a, b  \
	MOVLHPS  c, a  \
	MOVHLPS  b, c  \
	ADDPS    c, a

// func screen8F32SSE2(x, rows *float32, stride, k int, cut float32) uint32
//
// Eight consecutive rows, stride float32 apart: rows 0-3 are addressed from
// SI, rows 4-7 from DI = SI + 4·stride, each with 0, 1, 2 or 3 strides of
// index. k is a positive multiple of 4. Bit r of the result is set unless
// row r's value is < cut (CMPPS predicate 5, not-less-than: true for NaN).
TEXT ·screen8F32SSE2(SB), NOSPLIT, $0-44
	MOVQ x+0(FP), BX
	MOVQ rows+8(FP), SI
	MOVQ stride+16(FP), R8
	MOVQ k+24(FP), CX
	SHLQ $2, R8            // one row in bytes
	LEAQ (R8)(R8*2), R9    // three rows
	LEAQ (SI)(R8*4), DI    // row 4
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

	PCALIGN $64
quads:
	MOVUPS (BX), X8
	ROW((SI), X0)
	ROW((SI)(R8*1), X1)
	ROW((SI)(R8*2), X2)
	ROW((SI)(R9*1), X3)
	ROW((DI), X4)
	ROW((DI)(R8*1), X5)
	ROW((DI)(R8*2), X6)
	ROW((DI)(R9*1), X7)
	ADDQ   $16, SI
	ADDQ   $16, DI
	ADDQ   $16, BX
	SUBQ   $4, CX
	JNZ    quads

	MOVSS  cut+32(FP), X10
	SHUFPS $0, X10, X10
	REDUCE(X0, X1, X2, X3, X8, X9)
	CMPPS  X10, X0, $5
	MOVMSKPS X0, AX
	REDUCE(X4, X5, X6, X7, X8, X9)
	CMPPS  X10, X4, $5
	MOVMSKPS X4, DX
	SHLL   $4, DX
	ORL    DX, AX
	MOVL   AX, ret+40(FP)
	RET
