//go:build amd64 && !purego

#include "textflag.h"

// The serving scan's int16 screen. Each of a block's eight rows owns one
// accumulator of four int32 lanes; PMADDWL multiplies eight int16 pairs and
// adds adjacent products into the four lanes, and PADDL adds those into the
// row's accumulator. Integer sums are exact (or wrap like Go's int32), so
// neither the lane split nor the reduction order can move a bit.

// ROW adds components j..j+7 of one row, at m, times the query's (X8) into
// its accumulator.
#define ROW(m, acc) \
	MOVOU   m, X9  \
	PMADDWL X8, X9 \
	PADDL   X9, acc

// REDUCE turns the accumulators a, b, c, d of four rows into their sums in
// a's lanes 0-3: interleave pairs of rows and add, twice (SSE2 only).
#define REDUCE(a, b, c, d, t0, t1) \
	MOVO       a, t0  \
	PUNPCKLLQ  b, a   \
	PUNPCKHLQ  b, t0  \
	PADDL      t0, a  \
	MOVO       c, t1  \
	PUNPCKLLQ  d, c   \
	PUNPCKHLQ  d, t1  \
	PADDL      t1, c  \
	MOVO       a, t0  \
	PUNPCKLQDQ c, a   \
	PUNPCKHQDQ c, t0  \
	PADDL      t0, a

// func screen8I16SSE2(xq, rows *int16, k8, blocks int, cut int32) (b, mask int)
//
// Registers across blocks: BX the query, SI the block's row 0, R8 one row
// in bytes, R9 three, R10 the block index, R11 blocks, X12 cut in all four
// lanes. Inside a block AX walks the query, DX rows 0-3 (0, 1, 2 or 3 rows
// of index) and DI rows 4-7. A row whose sum is below the cut sets its
// PCMPGTL lane (cut > sum); the block returns when any of its eight lanes
// is clear, with the clear lanes as its mask.
TEXT ·screen8I16SSE2(SB), NOSPLIT, $0-56
	MOVQ   xq+0(FP), BX
	MOVQ   rows+8(FP), SI
	MOVQ   k8+16(FP), R8
	MOVQ   blocks+24(FP), R11
	MOVL   cut+32(FP), AX
	MOVL   AX, X12
	PSHUFD $0, X12, X12
	SHLQ   $1, R8           // one row in bytes
	LEAQ   (R8)(R8*2), R9   // three rows
	XORL   R10, R10

	// Pinned to a cache line (internal/linalg/wide_amd64.s says why).
	PCALIGN $64
block:
	PXOR X0, X0
	PXOR X1, X1
	PXOR X2, X2
	PXOR X3, X3
	PXOR X4, X4
	PXOR X5, X5
	PXOR X6, X6
	PXOR X7, X7
	MOVQ BX, AX
	MOVQ SI, DX
	LEAQ (SI)(R8*4), DI
	MOVQ k8+16(FP), CX

cols:
	MOVOU (AX), X8
	ROW((DX), X0)
	ROW((DX)(R8*1), X1)
	ROW((DX)(R8*2), X2)
	ROW((DX)(R9*1), X3)
	ROW((DI), X4)
	ROW((DI)(R8*1), X5)
	ROW((DI)(R8*2), X6)
	ROW((DI)(R9*1), X7)
	ADDQ  $16, AX
	ADDQ  $16, DX
	ADDQ  $16, DI
	SUBQ  $8, CX
	JNZ   cols

	REDUCE(X0, X1, X2, X3, X8, X9)
	REDUCE(X4, X5, X6, X7, X8, X9)
	MOVO     X12, X8
	PCMPGTL  X0, X8
	MOVO     X12, X9
	PCMPGTL  X4, X9
	MOVMSKPS X8, CX
	MOVMSKPS X9, DX
	SHLL     $4, DX
	ORL      DX, CX
	XORL     $0xFF, CX
	JNZ      flagged

	INCQ R10
	LEAQ (SI)(R8*8), SI
	CMPQ R10, R11
	JLT  block
	XORL CX, CX

flagged:
	MOVQ R10, b+40(FP)
	MOVQ CX, mask+48(FP)
	RET
