//go:build amd64 && !amd64.v3 && !purego

#include "textflag.h"

// The serving scan's lanes are item rows, not components: one register's
// two float64 lanes hold two rows' sequential chains, so every row is summed
// in Dot's order (component 0, 1, 2, … into one accumulator) and a packed
// add rounds each lane as the scalar add does. A product of two float32
// values is exact in float64, so it does not matter which lanes multiply it:
// PAIR forms the products in component lanes and only then moves them into
// row lanes.
//
// CVTPS2PD widens straight from memory. Its operand is 8 bytes, which
// legacy SSE does not require to be aligned (the 16-byte rule wide_amd64.s
// keeps is for 16-byte operands), and the memory form puts the two float32
// in their lanes on the load port: the register form spends a shuffle-port
// micro-op on that, which made the shuffle port the bound of a MOVSD +
// UNPCKLPS + MOVHLPS + CVTPS2PD form of this loop (1.6× slower; EXPERIMENTS.md,
// "The fleet request at vector speed").

// PAIR adds components j and j+1 of rows a and b into acc = (s_a, s_b),
// with X4 = (x_j, x_j+1): (a_j, a_j+1)·X4 and (b_j, b_j+1)·X4, then
// UNPCKLPD gives (a_j·x_j, b_j·x_j) and UNPCKHPD (a_j+1·x_j+1, b_j+1·x_j+1),
// added j first.
#define PAIR(a, b, t0, t1, t2, acc) \
	CVTPS2PD a, t0   \
	CVTPS2PD b, t1   \
	MULPD    X4, t0  \
	MULPD    X4, t1  \
	MOVAPD   t0, t2  \
	UNPCKLPD t1, t0  \
	UNPCKHPD t1, t2  \
	ADDPD    t0, acc \
	ADDPD    t2, acc

// func dot8F32SSE2(xw *float64, rows *float32, stride, k int, out *[8]float64)
//
// Eight consecutive rows, stride float32 apart, against the widened query:
// rows 0-3 are addressed from SI, rows 4-7 from DI = SI + 4·stride, each
// with 0, 1, 2 or 3 strides of index. k is a positive even number; out gets
// the eight sums in row order.
TEXT ·dot8F32SSE2(SB), NOSPLIT, $0-40
	MOVQ xw+0(FP), BX
	MOVQ rows+8(FP), SI
	MOVQ stride+16(FP), R8
	MOVQ k+24(FP), CX
	MOVQ out+32(FP), DX
	SHLQ $2, R8            // one row in bytes
	LEAQ (R8)(R8*2), R9    // three rows
	LEAQ (SI)(R8*4), DI    // row 4
	XORPS X0, X0           // rows 0, 1
	XORPS X1, X1           // rows 2, 3
	XORPS X2, X2           // rows 4, 5
	XORPS X3, X3           // rows 6, 7

	PCALIGN $64
pairs:
	MOVUPD (BX), X4
	PAIR((SI), (SI)(R8*1), X5, X6, X7, X0)
	PAIR((SI)(R8*2), (SI)(R9*1), X8, X9, X10, X1)
	PAIR((DI), (DI)(R8*1), X11, X12, X13, X2)
	PAIR((DI)(R8*2), (DI)(R9*1), X5, X6, X7, X3)
	ADDQ   $8, SI
	ADDQ   $8, DI
	ADDQ   $16, BX
	SUBQ   $2, CX
	JNZ    pairs

	MOVUPD X0, (DX)
	MOVUPD X1, 16(DX)
	MOVUPD X2, 32(DX)
	MOVUPD X3, 48(DX)
	RET
