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

// func blocksI8SSE2(xq, rows *int8, scales, bounds *float32, k, blocks int, xs, qnorm, thr float64) (b, mask int, s0, s1, s2, s3 int32)
//
// Registers across blocks: DI the block's first row, R10 its scales, R11
// its bounds, BX the block index, R8 k, R9 3k, X12 xs in both lanes, X13
// the stop rule's floor, X14 thr in both lanes. xq, blocks and qnorm stay
// in the argument frame.
TEXT ·blocksI8SSE2(SB), NOSPLIT, $0-104
	MOVQ    rows+8(FP), DI
	MOVQ    scales+16(FP), R10
	MOVQ    bounds+24(FP), R11
	MOVQ    k+32(FP), R8
	LEAQ    (R8)(R8*2), R9
	XORL    BX, BX
	MOVSD   xs+48(FP), X12
	MOVLHPS X12, X12
	MOVQ    $0x3810000000000000, AX // scoreFloor, 2⁻¹²⁶
	MOVQ    AX, X13
	MOVSD   thr+64(FP), X14
	MOVLHPS X14, X14
	CMPQ    BX, blocks+40(FP)
	JGE     none

	// Pinned to a cache line: the linker aligns text to 32 bytes only, and nm
	// shows a kernel at ≡ 0 or ≡ 32 (mod 64) by link order
	// (internal/linalg/wide_amd64.s has the measurements).
	PCALIGN $64
block:
	// The stop rule, float64(qnorm·float64(bound)) + 2⁻¹²⁶ < thr: ordered
	// and strict, so a NaN left side (an infinite qnorm times a zero bound)
	// never stops the scan.
	MOVSS    (R11), X4
	CVTSS2SD X4, X4
	MULSD    qnorm+56(FP), X4
	ADDSD    X13, X4
	UCOMISD  X4, X14
	JHI      none

	// The four exact dots: whole 16-column groups in the vector loop, the
	// k mod 16 columns after them one at a time, so no load passes the end
	// of a row (or of the query).
	PXOR X0, X0
	PXOR X1, X1
	PXOR X2, X2
	PXOR X3, X3
	MOVQ xq+0(FP), AX
	MOVQ DI, DX
	MOVQ R8, CX
	ANDQ $-16, CX
	JZ   tail

group:
	MOVOU     (AX), X4
	MOVO      X4, X5
	PUNPCKLBW X4, X4
	PUNPCKHBW X5, X5
	PSRAW     $8, X4
	PSRAW     $8, X5
	ROW((DX), X6, X7, X0)
	ROW((DX)(R8*1), X8, X9, X1)
	ROW((DX)(R8*2), X10, X11, X2)
	ROW((DX)(R9*1), X6, X7, X3)
	ADDQ      $16, AX
	ADDQ      $16, DX
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

tail:
	// AX and DX now point at column k &^ 15 of the query and of row 0.
	// Rows 3, 2, 1, 0 in turn sum their tail in R12, and X5 shifts one lane
	// up before taking each, so it ends as the four tails in row order. R13
	// steps down a row at a time and falls below DI only after row 0.
	TESTQ $15, R8
	JZ    score
	PXOR  X5, X5
	LEAQ  (DX)(R9*1), R13

tailrow:
	MOVQ  R8, CX
	ANDQ  $15, CX
	XORL  R12, R12

tailcol:
	MOVBLSX -1(AX)(CX*1), DX
	MOVBLSX -1(R13)(CX*1), SI
	IMULL   SI, DX
	ADDL    DX, R12
	DECQ    CX
	JNZ     tailcol
	PSLLO   $4, X5
	MOVL    R12, X7
	PADDL   X7, X5
	SUBQ    R8, R13
	CMPQ    R13, DI
	JCC     tailrow
	PADDL   X5, X0

score:
	// Each score as Go's xs*float64(scale)*float64(sum) computes it, two
	// roundings in that order, then not-less-than thr (CMPPD predicate 5:
	// ties are flagged, the sink decides them on the item index).
	CVTPS2PD  (R10), X6
	CVTPS2PD  8(R10), X7
	MULPD     X12, X6
	MULPD     X12, X7
	CVTPL2PD  X0, X8
	PSHUFD    $0x4e, X0, X9
	CVTPL2PD  X9, X9
	MULPD     X8, X6
	MULPD     X9, X7
	CMPPD     X14, X6, $5
	CMPPD     X14, X7, $5
	MOVMSKPD  X6, CX
	MOVMSKPD  X7, DX
	LEAQ      (CX)(DX*4), CX
	TESTQ     CX, CX
	JNZ       flagged

	INCQ BX
	LEAQ (DI)(R8*4), DI
	ADDQ $16, R10
	ADDQ $16, R11
	CMPQ BX, blocks+40(FP)
	JLT  block

none:
	// The stop rule fired at block BX, or BX == blocks: no row flagged.
	XORL CX, CX
	PXOR X0, X0

flagged:
	MOVQ  BX, b+72(FP)
	MOVQ  CX, mask+80(FP)
	MOVL  X0, s0+88(FP)
	PSRLO $4, X0
	MOVL  X0, s1+92(FP)
	PSRLO $4, X0
	MOVL  X0, s2+96(FP)
	PSRLO $4, X0
	MOVL  X0, s3+100(FP)
	RET
