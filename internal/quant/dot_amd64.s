//go:build amd64 && !purego

#include "textflag.h"

// ROW adds the dot of one row's 16 columns with the query's, held
// sign-extended in X4 (columns 0–7) and X5 (8–15), to the four int32 lanes
// of acc. Unpacking a register with itself puts each byte in the high half
// of a word and PSRAW $8 brings it down sign-extended, so every int8 value
// is handled, −128 included; PMADDWL then sums two int16×int16 products per
// lane, at most 2·128² — exact, no saturation anywhere (PMADDUBSW would
// saturate).
#define ROW(mem, lo, hi, acc) \
	MOVOU     mem, lo  \
	MOVO      lo, hi   \
	PUNPCKLBW lo, lo   \
	PUNPCKHBW hi, hi   \
	PSRAW     $8, lo   \
	PSRAW     $8, hi   \
	PMADDWL   X4, lo   \
	PMADDWL   X5, hi   \
	PADDL     lo, acc  \
	PADDL     hi, acc

// func dot4I8SSE2(xq, rows *int8, k, n int) (s0, s1, s2, s3 int32)
TEXT ·dot4I8SSE2(SB), NOSPLIT, $0-48
	MOVQ xq+0(FP), SI
	MOVQ rows+8(FP), DI
	MOVQ k+16(FP), R8
	MOVQ n+24(FP), CX
	LEAQ (R8)(R8*2), R9 // 3k
	PXOR X0, X0
	PXOR X1, X1
	PXOR X2, X2
	PXOR X3, X3

	// Pinned to a cache line: the linker aligns text to 32 bytes only, and nm
	// shows this kernel at ≡ 0 or ≡ 32 (mod 64) by link order
	// (internal/linalg/wide_amd64.s has the measurements).
	PCALIGN $64
group:
	MOVOU     (SI), X4
	MOVO      X4, X5
	PUNPCKLBW X4, X4
	PUNPCKHBW X5, X5
	PSRAW     $8, X4
	PSRAW     $8, X5
	ROW((DI), X6, X7, X0)
	ROW((DI)(R8*1), X8, X9, X1)
	ROW((DI)(R8*2), X10, X11, X2)
	ROW((DI)(R9*1), X12, X13, X3)
	ADDQ      $16, SI
	ADDQ      $16, DI
	SUBQ      $16, CX
	JNZ       group

	// Four accumulators of four lanes to one register of four sums, SSE2
	// only: interleave pairs of rows and add, twice.
	MOVO       X0, X4
	PUNPCKLLQ  X1, X0 // a0 b0 a1 b1
	PUNPCKHLQ  X1, X4 // a2 b2 a3 b3
	PADDL      X4, X0 // a02 b02 a13 b13
	MOVO       X2, X5
	PUNPCKLLQ  X3, X2
	PUNPCKHLQ  X3, X5
	PADDL      X5, X2 // c02 d02 c13 d13
	MOVO       X0, X4
	PUNPCKLQDQ X2, X0 // a02 b02 c02 d02
	PUNPCKHQDQ X2, X4 // a13 b13 c13 d13
	PADDL      X4, X0 // s0 s1 s2 s3
	MOVL       X0, s0+32(FP)
	PSRLO      $4, X0
	MOVL       X0, s1+36(FP)
	PSRLO      $4, X0
	MOVL       X0, s2+40(FP)
	PSRLO      $4, X0
	MOVL       X0, s3+44(FP)
	RET
