//go:build amd64 && !noasm

#include "textflag.h"

// AVX2+FMA micro-kernels. Operand order follows Go assembler convention
// (destination last, reversed from Intel syntax): VFMADD231PD s3, s2, d
// computes d += s2 * s3.
//
// Every kernel uses a fixed accumulation order, so results are
// bit-identical run to run. Callers guarantee vector lengths are
// multiples of 8 (wrappers in avx2_amd64.go handle tails in Go).

// func dotAVX2(x, y *float64, n int) float64
//
// Four independent YMM accumulators (enough to cover FMA latency at the
// 2-loads/cycle port limit), reduced pairwise then across lanes.
TEXT ·dotAVX2(SB), NOSPLIT, $0-32
	MOVQ   x+0(FP), SI
	MOVQ   y+8(FP), DI
	MOVQ   n+16(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   CX, BX
	SHRQ   $4, BX
	JZ     dot_tail8

dot_loop16:
	VMOVUPD     (SI), Y4
	VMOVUPD     32(SI), Y5
	VMOVUPD     64(SI), Y6
	VMOVUPD     96(SI), Y7
	VFMADD231PD (DI), Y4, Y0
	VFMADD231PD 32(DI), Y5, Y1
	VFMADD231PD 64(DI), Y6, Y2
	VFMADD231PD 96(DI), Y7, Y3
	ADDQ        $128, SI
	ADDQ        $128, DI
	DECQ        BX
	JNZ         dot_loop16

dot_tail8:
	TESTQ       $8, CX
	JZ          dot_reduce
	VMOVUPD     (SI), Y4
	VMOVUPD     32(SI), Y5
	VFMADD231PD (DI), Y4, Y0
	VFMADD231PD 32(DI), Y5, Y1

dot_reduce:
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X0, X0
	VMOVSD       X0, ret+24(FP)
	VZEROUPPER
	RET

// func dot2AVX2(dst, a *float64, lda int, x *float64, n int)
//
// Two rows of a mat-vec per sweep of x: dst[r] = a[r*lda : r*lda+n] · x
// for r < 2, n a multiple of 8. Each 16-element chunk of x is loaded once
// (Y8–Y11) and shared by both rows; row r keeps dotAVX2's four
// accumulators (Y4r…Y4r+3), its 8-element tail and its reduction, so every
// row's sum is bit-identical to dotAVX2 on that row alone.
TEXT ·dot2AVX2(SB), NOSPLIT, $0-40
	MOVQ   dst+0(FP), AX
	MOVQ   a+8(FP), SI
	MOVQ   lda+16(FP), BX
	SHLQ   $3, BX
	MOVQ   x+24(FP), DI
	MOVQ   n+32(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   CX, DX
	SHRQ   $4, DX
	JZ     dot2_tail8

dot2_loop16:
	VMOVUPD     (DI), Y8
	VMOVUPD     32(DI), Y9
	VMOVUPD     64(DI), Y10
	VMOVUPD     96(DI), Y11
	VFMADD231PD (SI), Y8, Y0
	VFMADD231PD 32(SI), Y9, Y1
	VFMADD231PD 64(SI), Y10, Y2
	VFMADD231PD 96(SI), Y11, Y3
	VFMADD231PD (SI)(BX*1), Y8, Y4
	VFMADD231PD 32(SI)(BX*1), Y9, Y5
	VFMADD231PD 64(SI)(BX*1), Y10, Y6
	VFMADD231PD 96(SI)(BX*1), Y11, Y7
	ADDQ        $128, SI
	ADDQ        $128, DI
	DECQ        DX
	JNZ         dot2_loop16

dot2_tail8:
	TESTQ       $8, CX
	JZ          dot2_reduce
	VMOVUPD     (DI), Y8
	VMOVUPD     32(DI), Y9
	VFMADD231PD (SI), Y8, Y0
	VFMADD231PD 32(SI), Y9, Y1
	VFMADD231PD (SI)(BX*1), Y8, Y4
	VFMADD231PD 32(SI)(BX*1), Y9, Y5

dot2_reduce:
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X0, X0
	VMOVSD       X0, (AX)
	VADDPD       Y5, Y4, Y4
	VADDPD       Y7, Y6, Y6
	VADDPD       Y6, Y4, Y4
	VEXTRACTF128 $1, Y4, X5
	VADDPD       X5, X4, X4
	VUNPCKHPD    X4, X4, X5
	VADDSD       X5, X4, X4
	VMOVSD       X4, 8(AX)
	VZEROUPPER
	RET

// func axpyAVX2(a float64, x, y *float64, n int)
//
// y += a*x over four YMM lanes per iteration (fused multiply-add, one
// rounding per element).
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSD a+0(FP), Y0
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX
	MOVQ         CX, BX
	SHRQ         $4, BX
	JZ           axpy_tail8

axpy_loop16:
	VMOVUPD     (DI), Y1
	VMOVUPD     32(DI), Y2
	VMOVUPD     64(DI), Y3
	VMOVUPD     96(DI), Y4
	VFMADD231PD (SI), Y0, Y1
	VFMADD231PD 32(SI), Y0, Y2
	VFMADD231PD 64(SI), Y0, Y3
	VFMADD231PD 96(SI), Y0, Y4
	VMOVUPD     Y1, (DI)
	VMOVUPD     Y2, 32(DI)
	VMOVUPD     Y3, 64(DI)
	VMOVUPD     Y4, 96(DI)
	ADDQ        $128, SI
	ADDQ        $128, DI
	DECQ        BX
	JNZ         axpy_loop16

axpy_tail8:
	TESTQ       $8, CX
	JZ          axpy_done
	VMOVUPD     (DI), Y1
	VMOVUPD     32(DI), Y2
	VFMADD231PD (SI), Y0, Y1
	VFMADD231PD 32(SI), Y0, Y2
	VMOVUPD     Y1, (DI)
	VMOVUPD     Y2, 32(DI)

axpy_done:
	VZEROUPPER
	RET

// func mulTile4x8AVX2(c *float64, stride int, a0, a1, a2, a3, bt *float64, kc int)
//
// The 4×8 register micro-kernel: eight YMM accumulators hold the C tile
// across the whole kc sweep (two column blocks × four rows); each k step
// is two B loads, four A broadcasts, eight FMAs. C is loaded and stored
// once, with the accumulators added in (dst += A·B semantics).
TEXT ·mulTile4x8AVX2(SB), NOSPLIT, $0-64
	MOVQ   a0+16(FP), SI
	MOVQ   a1+24(FP), DI
	MOVQ   a2+32(FP), R8
	MOVQ   a3+40(FP), R9
	MOVQ   bt+48(FP), R10
	MOVQ   kc+56(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ  CX, CX
	JZ     tile4_store

tile4_loop:
	VMOVUPD      (R10), Y8
	VMOVUPD      32(R10), Y9
	VBROADCASTSD (SI), Y10
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD (DI), Y11
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VBROADCASTSD (R8), Y12
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VBROADCASTSD (R9), Y13
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         $64, R10
	ADDQ         $8, SI
	ADDQ         $8, DI
	ADDQ         $8, R8
	ADDQ         $8, R9
	DECQ         CX
	JNZ          tile4_loop

tile4_store:
	MOVQ    c+0(FP), AX
	MOVQ    stride+8(FP), BX
	SHLQ    $3, BX
	VADDPD  (AX), Y0, Y0
	VADDPD  32(AX), Y1, Y1
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	ADDQ    BX, AX
	VADDPD  (AX), Y2, Y2
	VADDPD  32(AX), Y3, Y3
	VMOVUPD Y2, (AX)
	VMOVUPD Y3, 32(AX)
	ADDQ    BX, AX
	VADDPD  (AX), Y4, Y4
	VADDPD  32(AX), Y5, Y5
	VMOVUPD Y4, (AX)
	VMOVUPD Y5, 32(AX)
	ADDQ    BX, AX
	VADDPD  (AX), Y6, Y6
	VADDPD  32(AX), Y7, Y7
	VMOVUPD Y6, (AX)
	VMOVUPD Y7, 32(AX)
	VZEROUPPER
	RET

// func mulTile1x8AVX2(c, a0, bt *float64, kc int)
//
// Single-row tail of the 4×8 micro-kernel: one 8-wide accumulator pair.
TEXT ·mulTile1x8AVX2(SB), NOSPLIT, $0-32
	MOVQ   a0+8(FP), SI
	MOVQ   bt+16(FP), R10
	MOVQ   kc+24(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	TESTQ  CX, CX
	JZ     tile1_store

tile1_loop:
	VBROADCASTSD (SI), Y10
	VFMADD231PD  (R10), Y10, Y0
	VFMADD231PD  32(R10), Y10, Y1
	ADDQ         $64, R10
	ADDQ         $8, SI
	DECQ         CX
	JNZ          tile1_loop

tile1_store:
	MOVQ    c+0(FP), AX
	VADDPD  (AX), Y0, Y0
	VADDPD  32(AX), Y1, Y1
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VZEROUPPER
	RET

// GF(2³¹−1) constants for the Mersenne-folded mul-accumulate: the prime in
// every 64-bit lane, p−1 for the final conditional subtract, and the
// VPERMD index vector packing qword results back to dwords.
DATA gfP31<>+0(SB)/8, $0x7FFFFFFF
DATA gfP31<>+8(SB)/8, $0x7FFFFFFF
DATA gfP31<>+16(SB)/8, $0x7FFFFFFF
DATA gfP31<>+24(SB)/8, $0x7FFFFFFF
GLOBL gfP31<>(SB), RODATA|NOPTR, $32

DATA gfP31m1<>+0(SB)/8, $0x7FFFFFFE
DATA gfP31m1<>+8(SB)/8, $0x7FFFFFFE
DATA gfP31m1<>+16(SB)/8, $0x7FFFFFFE
DATA gfP31m1<>+24(SB)/8, $0x7FFFFFFE
GLOBL gfP31m1<>(SB), RODATA|NOPTR, $32

DATA gfPackIdx<>+0(SB)/4, $0
DATA gfPackIdx<>+4(SB)/4, $2
DATA gfPackIdx<>+8(SB)/4, $4
DATA gfPackIdx<>+12(SB)/4, $6
DATA gfPackIdx<>+16(SB)/4, $0
DATA gfPackIdx<>+20(SB)/4, $0
DATA gfPackIdx<>+24(SB)/4, $0
DATA gfPackIdx<>+28(SB)/4, $0
GLOBL gfPackIdx<>(SB), RODATA|NOPTR, $32

// gfLaneIdx is the dword index vector 0…7: compared against a broadcast
// column-tail count it yields the VPMASKMOVD load mask of the fused GF
// kernels' final partial chunk.
DATA gfLaneIdx<>+0(SB)/4, $0
DATA gfLaneIdx<>+4(SB)/4, $1
DATA gfLaneIdx<>+8(SB)/4, $2
DATA gfLaneIdx<>+12(SB)/4, $3
DATA gfLaneIdx<>+16(SB)/4, $4
DATA gfLaneIdx<>+20(SB)/4, $5
DATA gfLaneIdx<>+24(SB)/4, $6
DATA gfLaneIdx<>+28(SB)/4, $7
GLOBL gfLaneIdx<>(SB), RODATA|NOPTR, $32

// The fused GF(2³¹−1) sweep kernels below share these building blocks.
//
// GF256_FOLD is one Mersenne fold x → (x>>31) + (x&p) of a qword
// accumulator (p in every lane of Y12): any 64-bit value lands below
// 2³³ + 2³¹. Folds are lazy — an accumulator that has just been folded
// absorbs three products of at most (2³¹−1)² < 2⁶² before the next fold,
// and 3·2⁶² + 2³³ + 2³¹ < 2⁶⁴, so it cannot wrap. Both kernels keep one
// accumulator per (operand, 4-column half), so each takes one product per
// 8-column block: fold after each third block, and at most two full
// blocks plus the masked tail block before the final fold.
#define GF256_FOLD(acc, tmp) \
	VPSRLQ $31, acc, tmp; \
	VPAND  Y12, acc, acc; \
	VPADDQ tmp, acc, acc

#define GF256_FOLD8 \
	GF256_FOLD(Y0, Y10); \
	GF256_FOLD(Y1, Y11); \
	GF256_FOLD(Y2, Y10); \
	GF256_FOLD(Y3, Y11); \
	GF256_FOLD(Y4, Y10); \
	GF256_FOLD(Y5, Y11); \
	GF256_FOLD(Y6, Y10); \
	GF256_FOLD(Y7, Y11)

// GF256_TAILMASK turns the column-tail count in CX (1…7) into the dword
// load mask Y13.
#define GF256_TAILMASK \
	MOVQ         CX, X13; \
	VPBROADCASTD X13, Y13; \
	VPCMPGTD     gfLaneIdx<>(SB), Y13, Y13

// GF256_WIDEN_TAIL loads the masked (zero-filled) final chunk at ptr and
// widens its two halves into lo and hi (xhi names the low half of hi).
#define GF256_WIDEN_TAIL(ptr, lo, hi, xhi) \
	VPMASKMOVD   (ptr), Y13, hi; \
	VPMOVZXDQ    xhi, lo; \
	VEXTRACTI128 $1, hi, xhi; \
	VPMOVZXDQ    xhi, hi

// GF256_REDUCE4_STORE folds the eight half accumulators Y0…Y7 (operand t
// in Y2t, Y2t+1), sums each operand's eight qwords (below 2³⁴ each),
// finishes the four sums to canonical field elements — one more fold
// (< 2³¹ + 2⁶) and a masked subtract of p — and stores four dwords at R9.
#define GF256_REDUCE4_STORE \
	GF256_FOLD8; \
	VPADDQ      Y1, Y0, Y0; \
	VPADDQ      Y3, Y2, Y1; \
	VPADDQ      Y5, Y4, Y2; \
	VPADDQ      Y7, Y6, Y3; \
	VPUNPCKLQDQ Y1, Y0, Y8; \
	VPUNPCKHQDQ Y1, Y0, Y9; \
	VPADDQ      Y9, Y8, Y8; \
	VPUNPCKLQDQ Y3, Y2, Y9; \
	VPUNPCKHQDQ Y3, Y2, Y10; \
	VPADDQ      Y10, Y9, Y9; \
	VPERM2I128  $0x20, Y9, Y8, Y0; \
	VPERM2I128  $0x31, Y9, Y8, Y1; \
	VPADDQ      Y1, Y0, Y0; \
	GF256_FOLD(Y0, Y1); \
	VPCMPGTQ    gfP31m1<>(SB), Y0, Y1; \
	VPAND       Y12, Y1, Y1; \
	VPSUBQ      Y1, Y0, Y0; \
	VMOVDQU     gfPackIdx<>(SB), Y1; \
	VPERMD      Y0, Y1, Y0; \
	VMOVDQU     X0, (R9)

// GF256_TILE4_LANES multiplies the widened A halves (Y8 low, Y9 high)
// against four lanes' pre-widened x chunks — memory operands out of the
// pack, 64 bytes a lane — and accumulates per (lane, half).
#define GF256_TILE4_LANES \
	VPMULUDQ 0(DI), Y8, Y10; \
	VPMULUDQ 32(DI), Y9, Y11; \
	VPADDQ   Y10, Y0, Y0; \
	VPADDQ   Y11, Y1, Y1; \
	VPMULUDQ 64(DI), Y8, Y10; \
	VPMULUDQ 96(DI), Y9, Y11; \
	VPADDQ   Y10, Y2, Y2; \
	VPADDQ   Y11, Y3, Y3; \
	VPMULUDQ 128(DI), Y8, Y10; \
	VPMULUDQ 160(DI), Y9, Y11; \
	VPADDQ   Y10, Y4, Y4; \
	VPADDQ   Y11, Y5, Y5; \
	VPMULUDQ 192(DI), Y8, Y10; \
	VPMULUDQ 224(DI), Y9, Y11; \
	VPADDQ   Y10, Y6, Y6; \
	VPADDQ   Y11, Y7, Y7

#define GF256_TILE4_BLOCK \
	VPMOVZXDQ (SI), Y8; \
	VPMOVZXDQ 16(SI), Y9; \
	GF256_TILE4_LANES; \
	ADDQ $32, SI; \
	ADDQ R8, DI

// func gfTile4AVX2(dst, a *uint32, cols int, pack *uint64, stride int)
//
// The lane-fused batch tile on 256-bit registers: one A row against four
// x lanes. Each 8-column chunk of the row is widened once (two YMM
// halves) and multiplied against all four lanes, whose chunks come
// pre-widened from the pack ([col-block][lane][8]uint64, stride bytes
// between column blocks) as VPMULUDQ memory operands. The eight (lane,
// half) accumulators live in Y0–Y7 across the whole row; the column tail
// is a VPMASKMOVD zero-filled A chunk. Always stores four results.
TEXT ·gfTile4AVX2(SB), NOSPLIT, $0-40
	MOVQ    dst+0(FP), R9
	MOVQ    a+8(FP), SI
	MOVQ    cols+16(FP), CX
	MOVQ    pack+24(FP), DI
	MOVQ    stride+32(FP), R8
	VMOVDQU gfP31<>(SB), Y12
	VPXOR   Y0, Y0, Y0
	VPXOR   Y1, Y1, Y1
	VPXOR   Y2, Y2, Y2
	VPXOR   Y3, Y3, Y3
	VPXOR   Y4, Y4, Y4
	VPXOR   Y5, Y5, Y5
	VPXOR   Y6, Y6, Y6
	VPXOR   Y7, Y7, Y7
	MOVQ    CX, BX
	SHRQ    $3, BX
	CMPQ    BX, $3
	JL      gftile4_rem

gftile4_loop3:
	GF256_TILE4_BLOCK
	GF256_TILE4_BLOCK
	GF256_TILE4_BLOCK
	GF256_FOLD8
	SUBQ $3, BX
	CMPQ BX, $3
	JGE  gftile4_loop3

gftile4_rem:
	TESTQ BX, BX
	JZ    gftile4_tail

gftile4_rem1:
	GF256_TILE4_BLOCK
	DECQ BX
	JNZ  gftile4_rem1

gftile4_tail:
	ANDQ $7, CX
	JZ   gftile4_reduce
	GF256_TAILMASK
	GF256_WIDEN_TAIL(SI, Y8, Y9, X9)
	GF256_TILE4_LANES

gftile4_reduce:
	GF256_REDUCE4_STORE
	VZEROUPPER
	RET

// GF256_DOT4_ACC accumulates the products of the operand halves in Y10
// (low) and Y11 (high) with the shared halves Y8, Y9.
#define GF256_DOT4_ACC(alo, ahi) \
	VPMULUDQ Y8, Y10, Y10; \
	VPMULUDQ Y9, Y11, Y11; \
	VPADDQ   Y10, alo, alo; \
	VPADDQ   Y11, ahi, ahi

#define GF256_DOT4_ROW(ptr, alo, ahi) \
	VPMOVZXDQ (ptr), Y10; \
	VPMOVZXDQ 16(ptr), Y11; \
	GF256_DOT4_ACC(alo, ahi); \
	ADDQ $32, ptr

#define GF256_DOT4_BLOCK \
	VPMOVZXDQ (SI), Y8; \
	VPMOVZXDQ 16(SI), Y9; \
	ADDQ $32, SI; \
	GF256_DOT4_ROW(R10, Y0, Y1); \
	GF256_DOT4_ROW(R11, Y2, Y3); \
	GF256_DOT4_ROW(R12, Y4, Y5); \
	GF256_DOT4_ROW(R13, Y6, Y7)

#define GF256_DOT4_TAILROW(ptr, alo, ahi) \
	GF256_WIDEN_TAIL(ptr, Y10, Y11, X11); \
	GF256_DOT4_ACC(alo, ahi)

// func gfDot4AVX2(dst, s, o0, o1, o2, o3 *uint32, n int)
//
// Four inner products sharing one operand: dst[t] = s · o_t over
// GF(2³¹−1). The shared chunk is widened once per 8 columns for all four
// o_t — the multi-row tile of the single-x mat-vec (s = x, o_t = four A
// rows) and the pack-free path for the batch's last one to three lanes
// (s = the A row, o_t = x lanes). Same lazy fold and masked column tail
// as gfTile4AVX2; callers alias unused o_t onto a valid one. Always
// stores four results.
TEXT ·gfDot4AVX2(SB), NOSPLIT, $0-56
	MOVQ    dst+0(FP), R9
	MOVQ    s+8(FP), SI
	MOVQ    o0+16(FP), R10
	MOVQ    o1+24(FP), R11
	MOVQ    o2+32(FP), R12
	MOVQ    o3+40(FP), R13
	MOVQ    n+48(FP), CX
	VMOVDQU gfP31<>(SB), Y12
	VPXOR   Y0, Y0, Y0
	VPXOR   Y1, Y1, Y1
	VPXOR   Y2, Y2, Y2
	VPXOR   Y3, Y3, Y3
	VPXOR   Y4, Y4, Y4
	VPXOR   Y5, Y5, Y5
	VPXOR   Y6, Y6, Y6
	VPXOR   Y7, Y7, Y7
	MOVQ    CX, BX
	SHRQ    $3, BX
	CMPQ    BX, $3
	JL      gfdot4v_rem

gfdot4v_loop3:
	GF256_DOT4_BLOCK
	GF256_DOT4_BLOCK
	GF256_DOT4_BLOCK
	GF256_FOLD8
	SUBQ $3, BX
	CMPQ BX, $3
	JGE  gfdot4v_loop3

gfdot4v_rem:
	TESTQ BX, BX
	JZ    gfdot4v_tail

gfdot4v_rem1:
	GF256_DOT4_BLOCK
	DECQ BX
	JNZ  gfdot4v_rem1

gfdot4v_tail:
	ANDQ $7, CX
	JZ   gfdot4v_reduce
	GF256_TAILMASK
	GF256_WIDEN_TAIL(SI, Y8, Y9, X9)
	GF256_DOT4_TAILROW(R10, Y0, Y1)
	GF256_DOT4_TAILROW(R11, Y2, Y3)
	GF256_DOT4_TAILROW(R12, Y4, Y5)
	GF256_DOT4_TAILROW(R13, Y6, Y7)

gfdot4v_reduce:
	GF256_REDUCE4_STORE
	VZEROUPPER
	RET

// func gfAxpyAVX2(dst *uint32, c uint32, src *uint32, n int)
//
// dst[i] += c·src[i] mod 2³¹−1, eight elements per iteration as two
// interleaved 4-lane 64-bit chains: widen dwords to qwords (VPMOVZXDQ),
// VPMULUDQ the 31-bit operands into 62-bit products, add dst, then two
// Mersenne folds x → (x>>31) + (x&p) and one masked subtract bring each
// lane into [0, p). Exact — same values as the scalar fold.
TEXT ·gfAxpyAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVL         c+8(FP), AX
	MOVQ         src+16(FP), SI
	MOVQ         n+24(FP), CX
	MOVQ         AX, X0
	VPBROADCASTQ X0, Y0
	VMOVDQU      gfP31<>(SB), Y12
	VMOVDQU      gfP31m1<>(SB), Y13
	VMOVDQU      gfPackIdx<>(SB), Y11
	SHRQ         $3, CX
	JZ           gf_done

gf_loop:
	VPMOVZXDQ (SI), Y1
	VPMOVZXDQ 16(SI), Y5
	VPMOVZXDQ (DI), Y2
	VPMOVZXDQ 16(DI), Y6
	VPMULUDQ  Y0, Y1, Y1
	VPMULUDQ  Y0, Y5, Y5
	VPADDQ    Y2, Y1, Y1
	VPADDQ    Y6, Y5, Y5

	// fold 1: x = (x >> 31) + (x & p)
	VPSRLQ $31, Y1, Y2
	VPSRLQ $31, Y5, Y6
	VPAND  Y12, Y1, Y1
	VPAND  Y12, Y5, Y5
	VPADDQ Y2, Y1, Y1
	VPADDQ Y6, Y5, Y5

	// fold 2
	VPSRLQ $31, Y1, Y2
	VPSRLQ $31, Y5, Y6
	VPAND  Y12, Y1, Y1
	VPAND  Y12, Y5, Y5
	VPADDQ Y2, Y1, Y1
	VPADDQ Y6, Y5, Y5

	// conditional subtract: x -= p when x > p-1
	VPCMPGTQ Y13, Y1, Y2
	VPCMPGTQ Y13, Y5, Y6
	VPAND    Y12, Y2, Y2
	VPAND    Y12, Y6, Y6
	VPSUBQ   Y2, Y1, Y1
	VPSUBQ   Y6, Y5, Y5

	// pack qword lanes back to dwords and store
	VPERMD  Y1, Y11, Y1
	VPERMD  Y5, Y11, Y5
	VMOVDQU X1, (DI)
	VMOVDQU X5, 16(DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     gf_loop

gf_done:
	VZEROUPPER
	RET
