//go:build amd64 && !amd64.v3 && !purego

#include "textflag.h"

// The strip statement out[j] += ((y1·a[j] + y2·b[j]) + y3·c[j]) + y4·d[j] is
// vertical, so four float32 lanes repeat the Go loop's multiplies and adds
// in its order, each rounded on its own as MULSS and ADDSS round them. Loads
// and stores are unaligned MOVUPS / MOVSS into registers, never a memory
// operand of an arithmetic instruction (wide_amd64.s).

// TERMS leaves ((y1·a + y2·b) + y3·c) + y4·d in acc for the elements at byte
// offset off(R10) of the four rows; y1..y4 are X0..X3, broadcast or scalar
// to match mov/mul/add.
#define TERMS(mov, mul, add, off, acc, t) \
	mov off(AX)(R10*1), acc \
	mul X0, acc             \
	mov off(BX)(R10*1), t   \
	mul X1, t               \
	add t, acc              \
	mov off(CX)(R10*1), t   \
	mul X2, t               \
	add t, acc              \
	mov off(DX)(R10*1), t   \
	mul X3, t               \
	add t, acc

// ACCUM adds acc to the elements at byte offset off(R10) of out.
#define ACCUM(mov, add, off, out, acc, t) \
	mov off(out)(R10*1), t \
	add acc, t             \
	mov t, off(out)(R10*1)

// func fusedBlock4SSE2(r1, r2, r3, r4 *float32, k int, v, packed, svec *float32)
//
// One call is one block's whole triangle: at k = 32 half the strips are
// shorter than 16 floats, so a call per strip would cost what the lanes
// save. svec[i] += ((v1·r1[i] + v2·r2[i]) + v3·r3[i]) + v4·r4[i] is the
// strip statement with the ratings for y and svec for out, so it goes first,
// as one strip of k. Then AX..DX walk the four rows one element per triangle
// row, DI walks packed — row i's strip ends where row i+1's begins — and R10
// is the byte offset inside the strip: eight floats per step, then four,
// two (MOVSD: the upper lanes are zero and are not stored) and one, so no
// load reaches past a row's k-th float.
TEXT ·fusedBlock4SSE2(SB), NOSPLIT, $0-64
	MOVQ r1+0(FP), AX
	MOVQ r2+8(FP), BX
	MOVQ r3+16(FP), CX
	MOVQ r4+24(FP), DX
	MOVQ k+32(FP), R8 // strip length k − i
	MOVQ v+40(FP), SI
	MOVQ packed+48(FP), DI
	MOVQ svec+56(FP), R9

	MOVSS  (SI), X0
	MOVSS  4(SI), X1
	MOVSS  8(SI), X2
	MOVSS  12(SI), X3
	SHUFPS $0, X0, X0
	SHUFPS $0, X1, X1
	SHUFPS $0, X2, X2
	SHUFPS $0, X3, X3
	XORQ   R10, R10
	MOVQ   R8, R11
	SUBQ   $4, R11
	JL     rhsones

rhsfour:
	TERMS(MOVUPS, MULPS, ADDPS, 0, X4, X6)
	ACCUM(MOVUPS, ADDPS, 0, R9, X4, X8)
	ADDQ $16, R10
	SUBQ $4, R11
	JGE  rhsfour

rhsones:
	ANDQ $3, R11
	JZ   row

rhsone:
	TERMS(MOVSS, MULSS, ADDSS, 0, X4, X6)
	ACCUM(MOVSS, ADDSS, 0, R9, X4, X8)
	ADDQ $4, R10
	DECQ R11
	JNZ  rhsone

row:
	MOVSS  (AX), X0
	MOVSS  (BX), X1
	MOVSS  (CX), X2
	MOVSS  (DX), X3
	SHUFPS $0, X0, X0
	SHUFPS $0, X1, X1
	SHUFPS $0, X2, X2
	SHUFPS $0, X3, X3
	XORQ   R10, R10
	MOVQ   R8, R11
	SUBQ   $8, R11
	JL     four

	// Pinned to a cache line: wide_amd64.s says why.
	PCALIGN $64
eight:
	TERMS(MOVUPS, MULPS, ADDPS, 0, X4, X6)
	TERMS(MOVUPS, MULPS, ADDPS, 16, X5, X7)
	ACCUM(MOVUPS, ADDPS, 0, DI, X4, X8)
	ACCUM(MOVUPS, ADDPS, 16, DI, X5, X9)
	ADDQ $32, R10
	SUBQ $8, R11
	JGE  eight

four:
	TESTQ $4, R11
	JZ    two
	TERMS(MOVUPS, MULPS, ADDPS, 0, X4, X6)
	ACCUM(MOVUPS, ADDPS, 0, DI, X4, X8)
	ADDQ  $16, R10

two:
	TESTQ $2, R11
	JZ    one
	TERMS(MOVSD, MULPS, ADDPS, 0, X4, X6)
	ACCUM(MOVSD, ADDPS, 0, DI, X4, X8)
	ADDQ  $8, R10

one:
	TESTQ $1, R11
	JZ    next
	TERMS(MOVSS, MULSS, ADDSS, 0, X4, X6)
	ACCUM(MOVSS, ADDSS, 0, DI, X4, X8)
	ADDQ  $4, R10

next:
	ADDQ R10, DI // R10 is now the strip's length in bytes
	ADDQ $4, AX
	ADDQ $4, BX
	ADDQ $4, CX
	ADDQ $4, DX
	DECQ R8
	JNZ  row
	RET
