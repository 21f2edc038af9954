//go:build amd64 && !amd64.v3 && !purego

#include "textflag.h"

// TROW adds one factor row's products to one row of the 4 × 4 tile: the
// row's widened element, duplicated into both lanes at mem, times the four
// widened column elements (X8: c0, c1; X9: c2, c3) onto (lo, hi). A packed
// multiply and a packed add round each lane as the scalar pair does.
#define TROW(mem, t0, t1, lo, hi) \
	MOVUPD mem, t0 \
	MOVAPD t0, t1  \
	MULPD  X8, t0  \
	MULPD  X9, t1  \
	ADDPD  t0, lo  \
	ADDPD  t1, hi

// func gramTileSSE2(f *float32, rows, k int, gm *float64, b int, dup *float64)
//
// Tile row b of the float64 Gram gm (rows 4b..4b+3, columns 4b..k−1) takes
// the products of the rows × k float32 block f, k a positive multiple of 4,
// 1 ≤ rows, dup holding 8·rows float64 of scratch.
//
// First the block's four elements of that tile row are widened once and
// written to dup with each value in both lanes (64 bytes a factor row), so
// the tile loop broadcasts with a plain load: a shuffle there would share
// ports with the adds. Then one 4 × 4 tile at a time lives in X0–X7 while
// the block's rows stream past it — the tile is loaded and stored once per
// block, not once per product pair, and element (i, j) still adds
// f_r[i]·f_r[j] for r ascending. The column elements are widened where they
// are used (CVTPS2PD from memory has no alignment rule), so the block is
// read as the 16 KB of float32 it is and stays in L1 under all of a tile
// row's tiles.
TEXT ·gramTileSSE2(SB), NOSPLIT, $0-48
	MOVQ f+0(FP), SI
	MOVQ rows+8(FP), R8
	MOVQ k+16(FP), CX
	MOVQ gm+24(FP), DI
	MOVQ b+32(FP), DX
	MOVQ dup+40(FP), R9
	MOVQ CX, R10
	SHLQ $2, R10 // one factor row in bytes
	MOVQ CX, R13
	SHLQ $3, R13 // one Gram row in bytes
	MOVQ DX, R11
	SHLQ $4, R11
	ADDQ R11, SI // &f[0][4b]: the tile row's own elements, the diagonal tile's columns

	MOVQ SI, AX
	MOVQ R9, BX
	MOVQ R8, R12

	PCALIGN $64
widen:
	MOVUPS   (AX), X0
	CVTPS2PD X0, X1
	MOVHLPS  X0, X0
	CVTPS2PD X0, X2
	MOVAPD   X1, X3
	UNPCKLPD X1, X1
	UNPCKHPD X3, X3
	MOVAPD   X2, X4
	UNPCKLPD X2, X2
	UNPCKHPD X4, X4
	MOVUPD   X1, (BX)
	MOVUPD   X3, 16(BX)
	MOVUPD   X2, 32(BX)
	MOVUPD   X4, 48(BX)
	ADDQ     R10, AX
	ADDQ     $64, BX
	DECQ     R12
	JNZ      widen

	// DI = &g[4b][4b], the diagonal tile; CX = three Gram rows; DX = tiles
	// left in the tile row, k/4 − b.
	MOVQ  DX, AX
	IMULQ R13, AX
	LEAQ  (DI)(AX*4), DI
	LEAQ  (DI)(R11*2), DI
	SHRQ  $2, CX
	SUBQ  DX, CX
	MOVQ  CX, DX
	LEAQ  (R13)(R13*2), CX

tile:
	MOVUPD (DI), X0
	MOVUPD 16(DI), X1
	MOVUPD (DI)(R13*1), X2
	MOVUPD 16(DI)(R13*1), X3
	MOVUPD (DI)(R13*2), X4
	MOVUPD 16(DI)(R13*2), X5
	MOVUPD (DI)(CX*1), X6
	MOVUPD 16(DI)(CX*1), X7
	MOVQ   SI, AX
	MOVQ   R9, BX
	MOVQ   R8, R12

	// Pinned to a cache line: wide_amd64.s says why.
	PCALIGN $64
row:
	CVTPS2PD (AX), X8
	CVTPS2PD 8(AX), X9
	TROW((BX), X10, X11, X0, X1)
	TROW(16(BX), X12, X13, X2, X3)
	TROW(32(BX), X10, X11, X4, X5)
	TROW(48(BX), X12, X13, X6, X7)
	ADDQ     R10, AX
	ADDQ     $64, BX
	DECQ     R12
	JNZ      row

	MOVUPD X0, (DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, (DI)(R13*1)
	MOVUPD X3, 16(DI)(R13*1)
	MOVUPD X4, (DI)(R13*2)
	MOVUPD X5, 16(DI)(R13*2)
	MOVUPD X6, (DI)(CX*1)
	MOVUPD X7, 16(DI)(CX*1)
	ADDQ   $16, SI
	ADDQ   $32, DI
	DECQ   DX
	JNZ    tile
	RET
