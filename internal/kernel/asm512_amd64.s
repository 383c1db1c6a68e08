//go:build amd64 && !noasm

#include "textflag.h"

// AVX-512 micro-kernels. Operand order follows Go assembler convention
// (destination last, reversed from Intel syntax): VFMADD231PD s3, s2, d
// computes d += s2 * s3; the .BCST suffix broadcasts a 64-bit memory
// operand across the vector lanes; "op ..., K1, dst" merge-masks dst by
// opmask K1, suppressing loads, stores and faults on masked-off lanes.
//
// Every kernel uses a fixed accumulation order, so results are
// bit-identical run to run. Vector-length wrappers in avx512_amd64.go
// handle sub-8 tails in Go; the batch mat-vec tile kernels instead take
// an explicit 8-bit lane mask, so partial tiles are written with masked
// stores rather than through zero-padded scratch tiles.
//
// Every kernel here runs on the backend's AVX512F/DQ/BW/VL base except
// gfTile8IFMA, which also needs AVX512-IFMA (VPMADD52LUQ/VPMADD52HUQ);
// gfMatVecBatchVec512 calls it only when cpuHasIFMA held at init.

// GF(2³¹−1) constants, broadcast to all qword lanes via VPBROADCASTQ:
// the prime for the Mersenne fold mask, p−1 for the final conditional
// subtract. (The <> symbols in asm_amd64.s are file-local, hence the
// separate copies.)
DATA gfP31q<>+0(SB)/8, $0x7FFFFFFF
GLOBL gfP31q<>(SB), RODATA|NOPTR, $8

DATA gfP31m1q<>+0(SB)/8, $0x7FFFFFFE
GLOBL gfP31m1q<>(SB), RODATA|NOPTR, $8

// func dotAVX512(x, y *float64, n int) float64
//
// Four independent ZMM accumulators (32 elements per step), reduced
// pairwise then across lanes. n must be a multiple of 8; the 8-element
// blocks beyond the 32s drain through the first accumulator.
TEXT ·dotAVX512(SB), NOSPLIT, $0-32
	MOVQ   x+0(FP), SI
	MOVQ   y+8(FP), DI
	MOVQ   n+16(FP), CX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ   CX, BX
	SHRQ   $5, BX
	JZ     dot512_tail

dot512_loop32:
	VMOVUPD     (SI), Z4
	VMOVUPD     64(SI), Z5
	VMOVUPD     128(SI), Z6
	VMOVUPD     192(SI), Z7
	VFMADD231PD (DI), Z4, Z0
	VFMADD231PD 64(DI), Z5, Z1
	VFMADD231PD 128(DI), Z6, Z2
	VFMADD231PD 192(DI), Z7, Z3
	ADDQ        $256, SI
	ADDQ        $256, DI
	DECQ        BX
	JNZ         dot512_loop32

dot512_tail:
	ANDQ $24, CX
	JZ   dot512_reduce

dot512_tail8:
	VMOVUPD     (SI), Z4
	VFMADD231PD (DI), Z4, Z0
	ADDQ        $64, SI
	ADDQ        $64, DI
	SUBQ        $8, CX
	JNZ         dot512_tail8

dot512_reduce:
	VADDPD        Z1, Z0, Z0
	VADDPD        Z3, Z2, Z2
	VADDPD        Z2, Z0, Z0
	VEXTRACTF64X4 $1, Z0, Y1
	VADDPD        Y1, Y0, Y0
	VEXTRACTF128  $1, Y0, X1
	VADDPD        X1, X0, X0
	VUNPCKHPD     X0, X0, X1
	VADDSD        X1, X0, X0
	VMOVSD        X0, ret+24(FP)
	VZEROUPPER
	RET

// DOT512_REDUCE folds a row's four ZMM accumulators a0..a3 into its dot
// product and stores it at off(AX), in dotAVX512's order: (a0+a1) +
// (a2+a3), then the upper 256 bits onto the lower, the upper 128 onto the
// lower, and the high lane onto the low one. Only the row's own registers
// serve as temporaries.
#define DOT512_REDUCE(a0, a1, a2, a3, y0, y1, x0, x1, off) \
	VADDPD        a1, a0, a0; \
	VADDPD        a3, a2, a2; \
	VADDPD        a2, a0, a0; \
	VEXTRACTF64X4 $1, a0, y1; \
	VADDPD        y1, y0, y0; \
	VEXTRACTF128  $1, y0, x1; \
	VADDPD        x1, x0, x0; \
	VUNPCKHPD     x0, x0, x1; \
	VADDSD        x1, x0, x0; \
	VMOVSD        x0, off(AX)

// func dot4AVX512(dst, a *float64, lda int, x *float64, n int)
//
// Four rows of a mat-vec per sweep of x: dst[r] = a[r*lda : r*lda+n] · x
// for r < 4, n a multiple of 8. Each 32-element chunk of x is loaded once
// (Z16–Z19) and shared by the four rows; row r keeps dotAVX512's four
// accumulators (Z4r…Z4r+3), its 8-element tail blocks drain into the
// first of them and its reduction is DOT512_REDUCE, so every row's sum is
// bit-identical to dotAVX512 on that row alone.
TEXT ·dot4AVX512(SB), NOSPLIT, $0-40
	MOVQ   dst+0(FP), AX
	MOVQ   a+8(FP), SI
	MOVQ   lda+16(FP), BX
	SHLQ   $3, BX
	LEAQ   (SI)(BX*2), R8
	ADDQ   BX, R8              // R8 = a + 3*lda
	MOVQ   x+24(FP), DI
	MOVQ   n+32(FP), CX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	MOVQ   CX, DX
	SHRQ   $5, DX
	JZ     dot4_tail

dot4_loop32:
	VMOVUPD     (DI), Z16
	VMOVUPD     64(DI), Z17
	VMOVUPD     128(DI), Z18
	VMOVUPD     192(DI), Z19
	VFMADD231PD (SI), Z16, Z0
	VFMADD231PD 64(SI), Z17, Z1
	VFMADD231PD 128(SI), Z18, Z2
	VFMADD231PD 192(SI), Z19, Z3
	VFMADD231PD (SI)(BX*1), Z16, Z4
	VFMADD231PD 64(SI)(BX*1), Z17, Z5
	VFMADD231PD 128(SI)(BX*1), Z18, Z6
	VFMADD231PD 192(SI)(BX*1), Z19, Z7
	VFMADD231PD (SI)(BX*2), Z16, Z8
	VFMADD231PD 64(SI)(BX*2), Z17, Z9
	VFMADD231PD 128(SI)(BX*2), Z18, Z10
	VFMADD231PD 192(SI)(BX*2), Z19, Z11
	VFMADD231PD (R8), Z16, Z12
	VFMADD231PD 64(R8), Z17, Z13
	VFMADD231PD 128(R8), Z18, Z14
	VFMADD231PD 192(R8), Z19, Z15
	ADDQ        $256, SI
	ADDQ        $256, R8
	ADDQ        $256, DI
	DECQ        DX
	JNZ         dot4_loop32

dot4_tail:
	ANDQ $24, CX
	JZ   dot4_reduce

dot4_tail8:
	VMOVUPD     (DI), Z16
	VFMADD231PD (SI), Z16, Z0
	VFMADD231PD (SI)(BX*1), Z16, Z4
	VFMADD231PD (SI)(BX*2), Z16, Z8
	VFMADD231PD (R8), Z16, Z12
	ADDQ        $64, SI
	ADDQ        $64, R8
	ADDQ        $64, DI
	SUBQ        $8, CX
	JNZ         dot4_tail8

dot4_reduce:
	DOT512_REDUCE(Z0, Z1, Z2, Z3, Y0, Y1, X0, X1, 0)
	DOT512_REDUCE(Z4, Z5, Z6, Z7, Y4, Y5, X4, X5, 8)
	DOT512_REDUCE(Z8, Z9, Z10, Z11, Y8, Y9, X8, X9, 16)
	DOT512_REDUCE(Z12, Z13, Z14, Z15, Y12, Y13, X12, X13, 24)
	VZEROUPPER
	RET

// func axpyAVX512(a float64, x, y *float64, n int)
//
// y += a*x over two ZMM lanes per iteration (fused multiply-add, one
// rounding per element — elementwise, so banding at any offset is
// bit-identical). n must be a multiple of 8.
TEXT ·axpyAVX512(SB), NOSPLIT, $0-32
	VBROADCASTSD a+0(FP), Z0
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX
	MOVQ         CX, BX
	SHRQ         $4, BX
	JZ           axpy512_tail8

axpy512_loop16:
	VMOVUPD     (DI), Z1
	VMOVUPD     64(DI), Z2
	VFMADD231PD (SI), Z0, Z1
	VFMADD231PD 64(SI), Z0, Z2
	VMOVUPD     Z1, (DI)
	VMOVUPD     Z2, 64(DI)
	ADDQ        $128, SI
	ADDQ        $128, DI
	DECQ        BX
	JNZ         axpy512_loop16

axpy512_tail8:
	TESTQ       $8, CX
	JZ          axpy512_done
	VMOVUPD     (DI), Z1
	VFMADD231PD (SI), Z0, Z1
	VMOVUPD     Z1, (DI)

axpy512_done:
	VZEROUPPER
	RET

// func mulTile8x8AVX512(c *float64, stride int, a *float64, lda int, bt *float64, kc int, mask uint64)
//
// The 8×8 register micro-kernel: eight ZMM accumulators hold the C tile
// across the whole kc sweep, one per C row; each k step is one B tile
// load plus eight broadcast-FMAs straight from the A rows (embedded
// .BCST operands, rows addressed through three base pointers at strides
// {0,1,2,4}, {3,5,7} and {6}·lda). C rows are accumulated and stored
// once under the column opmask, so partial tiles at the matrix edge
// never touch memory past the row end.
TEXT ·mulTile8x8AVX512(SB), NOSPLIT, $0-56
	MOVQ   a+16(FP), SI
	MOVQ   lda+24(FP), BX
	SHLQ   $3, BX
	LEAQ   (SI)(BX*2), R8
	ADDQ   BX, R8              // R8 = a + 3*lda
	LEAQ   (R8)(BX*2), R9
	ADDQ   BX, R9              // R9 = a + 6*lda
	MOVQ   bt+32(FP), R10
	MOVQ   kc+40(FP), CX
	MOVQ   mask+48(FP), AX
	KMOVW  AX, K1
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	TESTQ  CX, CX
	JZ     tile8_store

tile8_loop:
	VMOVUPD          (R10), Z8
	VFMADD231PD.BCST (SI), Z8, Z0
	VFMADD231PD.BCST (SI)(BX*1), Z8, Z1
	VFMADD231PD.BCST (SI)(BX*2), Z8, Z2
	VFMADD231PD.BCST (R8), Z8, Z3
	VFMADD231PD.BCST (SI)(BX*4), Z8, Z4
	VFMADD231PD.BCST (R8)(BX*2), Z8, Z5
	VFMADD231PD.BCST (R9), Z8, Z6
	VFMADD231PD.BCST (R8)(BX*4), Z8, Z7
	ADDQ             $64, R10
	ADDQ             $8, SI
	ADDQ             $8, R8
	ADDQ             $8, R9
	DECQ             CX
	JNZ              tile8_loop

tile8_store:
	MOVQ    c+0(FP), AX
	MOVQ    stride+8(FP), DX
	SHLQ    $3, DX
	VADDPD  (AX), Z0, K1, Z0
	VMOVUPD Z0, K1, (AX)
	ADDQ    DX, AX
	VADDPD  (AX), Z1, K1, Z1
	VMOVUPD Z1, K1, (AX)
	ADDQ    DX, AX
	VADDPD  (AX), Z2, K1, Z2
	VMOVUPD Z2, K1, (AX)
	ADDQ    DX, AX
	VADDPD  (AX), Z3, K1, Z3
	VMOVUPD Z3, K1, (AX)
	ADDQ    DX, AX
	VADDPD  (AX), Z4, K1, Z4
	VMOVUPD Z4, K1, (AX)
	ADDQ    DX, AX
	VADDPD  (AX), Z5, K1, Z5
	VMOVUPD Z5, K1, (AX)
	ADDQ    DX, AX
	VADDPD  (AX), Z6, K1, Z6
	VMOVUPD Z6, K1, (AX)
	ADDQ    DX, AX
	VADDPD  (AX), Z7, K1, Z7
	VMOVUPD Z7, K1, (AX)
	VZEROUPPER
	RET

// func mulTile1x8AVX512(c, a0, bt *float64, kc int, mask uint64)
//
// Single-row tail of the 8×8 micro-kernel: one ZMM accumulator, same
// per-row FMA chain as mulTile8x8AVX512 (rows are independent there), so
// a row's result is identical whichever kernel a band boundary routes it
// to.
TEXT ·mulTile1x8AVX512(SB), NOSPLIT, $0-40
	MOVQ   a0+8(FP), SI
	MOVQ   bt+16(FP), R10
	MOVQ   kc+24(FP), CX
	MOVQ   mask+32(FP), AX
	KMOVW  AX, K1
	VPXORQ Z0, Z0, Z0
	TESTQ  CX, CX
	JZ     tile1x8_store

tile1x8_loop:
	VMOVUPD          (R10), Z8
	VFMADD231PD.BCST (SI), Z8, Z0
	ADDQ             $64, R10
	ADDQ             $8, SI
	DECQ             CX
	JNZ              tile1x8_loop

tile1x8_store:
	MOVQ    c+0(FP), AX
	VADDPD  (AX), Z0, K1, Z0
	VMOVUPD Z0, K1, (AX)
	VZEROUPPER
	RET

// The fused GF(2³¹−1) sweep kernels below share these building blocks.
//
// GF512_FOLD is one Mersenne fold x → (x>>31) + (x&p) of a qword
// accumulator (p broadcast in Z31): any 64-bit value lands below
// 2³³ + 2³¹.
#define GF512_FOLD(acc, tmp) \
	VPSRLQ $31, acc, tmp; \
	VPANDQ Z31, acc, acc; \
	VPADDQ tmp, acc, acc

// GF512_PAIRSUM leaves, in each 128-bit lane of dst, the lane-local sums
// [a[0]+a[1], b[0]+b[1]] of two qword accumulators.
#define GF512_PAIRSUM(a, b, dst, tmp) \
	VPUNPCKLQDQ b, a, dst; \
	VPUNPCKHQDQ b, a, tmp; \
	VPADDQ      tmp, dst, dst

// GF512_FINISH reduces the qword sums in r (each below 2⁴⁷) to canonical
// field elements: one fold (< 2³¹ + 2¹⁶) and an opmasked subtract of p.
#define GF512_FINISH(r, tmp) \
	GF512_FOLD(r, tmp); \
	VPCMPGTQ Z30, r, K3; \
	VPSUBQ   Z31, r, K3, r

// GF512_IFMA_LANE loads one lane's pre-widened x chunk out of the pack
// into x and accumulates both halves of its 104-bit products with the
// widened A chunk in Z16: bits 0–51 into lo and bits 52–103 into hi.
// Operands are below 2³¹, so every product is below 2⁶², its low half
// below 2⁵² and its high half below 2¹⁰.
#define GF512_IFMA_LANE(off, x, lo, hi) \
	VMOVDQU64   off(DI), x; \
	VPMADD52LUQ x, Z16, lo; \
	VPMADD52HUQ x, Z16, hi

#define GF512_IFMA_LANES \
	GF512_IFMA_LANE(0, Z17, Z0, Z8); \
	GF512_IFMA_LANE(64, Z18, Z1, Z9); \
	GF512_IFMA_LANE(128, Z19, Z2, Z10); \
	GF512_IFMA_LANE(192, Z20, Z3, Z11); \
	GF512_IFMA_LANE(256, Z21, Z4, Z12); \
	GF512_IFMA_LANE(320, Z22, Z5, Z13); \
	GF512_IFMA_LANE(384, Z23, Z6, Z14); \
	GF512_IFMA_LANE(448, Z24, Z7, Z15)

#define GF512_IFMA_BLOCK \
	VPMOVZXDQ (SI), Z16; \
	GF512_IFMA_LANES; \
	ADDQ $32, SI; \
	ADDQ R8, DI

// GF512_IFMA_MERGE folds one lane's lo accumulator below 2³⁴ and adds
// its hi accumulator shifted left by 21, since 2⁵² = 2²¹·2³¹ ≡ 2²¹
// (mod p): lo becomes congruent to the lane's sum of products. hi holds
// at most 4 095 high halves, so hi ≪ 21 < 2⁴³ and lo ends below 2⁴⁴.
#define GF512_IFMA_MERGE(lo, hi, tmp) \
	GF512_FOLD(lo, tmp); \
	VPSLLQ $21, hi, hi; \
	VPADDQ hi, lo, lo

#define GF512_IFMA_MERGE8 \
	GF512_IFMA_MERGE(Z0, Z8, Z17); \
	GF512_IFMA_MERGE(Z1, Z9, Z18); \
	GF512_IFMA_MERGE(Z2, Z10, Z19); \
	GF512_IFMA_MERGE(Z3, Z11, Z20); \
	GF512_IFMA_MERGE(Z4, Z12, Z21); \
	GF512_IFMA_MERGE(Z5, Z13, Z22); \
	GF512_IFMA_MERGE(Z6, Z14, Z23); \
	GF512_IFMA_MERGE(Z7, Z15, Z24)

#define GF512_IFMA_ZERO_HI \
	VPXORQ Z8, Z8, Z8; \
	VPXORQ Z9, Z9, Z9; \
	VPXORQ Z10, Z10, Z10; \
	VPXORQ Z11, Z11, Z11; \
	VPXORQ Z12, Z12, Z12; \
	VPXORQ Z13, Z13, Z13; \
	VPXORQ Z14, Z14, Z14; \
	VPXORQ Z15, Z15, Z15

// func gfTile8IFMA(dst, a *uint32, cols int, pack *uint64, stride int, mask uint64)
//
// The lane-fused batch tile: one A row against eight x lanes. Each
// 8-column chunk of the row is widened once (VPMOVZXDQ) and multiplied
// against all eight lanes, whose chunks come pre-widened from the pack
// ([col-block][lane][8]uint64, stride bytes between column blocks). Each
// lane chunk is loaded once and feeds a VPMADD52LUQ and a VPMADD52HUQ,
// which multiply and accumulate in one µop each: eight lo accumulators
// (Z0–Z7) and eight hi accumulators (Z8–Z15) live across the whole row.
// A lo accumulator absorbs one product half below 2⁵² per column block,
// and after a merge it is below 2⁴⁴; since 4095·(2⁵²−1) + 2⁴⁴ < 2⁶⁴, the
// accumulators are merged (and hi cleared) once per 4 094 full column
// blocks, leaving at most 4 094 full blocks plus the masked tail block
// for the final merge — no fold inside the sweep of any row below
// 32 760 columns. The column tail is an opmask-zeroed A chunk, and the
// eight merged lane sums are transposed, finished and stored through the
// lane opmask, so a partial lane tile never writes past its w-wide
// output row.
TEXT ·gfTile8IFMA(SB), NOSPLIT, $0-48
	MOVQ         dst+0(FP), R9
	MOVQ         a+8(FP), SI
	MOVQ         cols+16(FP), CX
	MOVQ         pack+24(FP), DI
	MOVQ         stride+32(FP), R8
	MOVQ         mask+40(FP), AX
	KMOVW        AX, K1
	VPBROADCASTQ gfP31q<>(SB), Z31
	VPBROADCASTQ gfP31m1q<>(SB), Z30
	VPXORQ       Z0, Z0, Z0
	VPXORQ       Z1, Z1, Z1
	VPXORQ       Z2, Z2, Z2
	VPXORQ       Z3, Z3, Z3
	VPXORQ       Z4, Z4, Z4
	VPXORQ       Z5, Z5, Z5
	VPXORQ       Z6, Z6, Z6
	VPXORQ       Z7, Z7, Z7
	GF512_IFMA_ZERO_HI
	MOVQ         CX, BX
	SHRQ         $3, BX

gfifma_run:
	// DX = min(BX, 4094) full blocks before the next merge.
	MOVQ    $4094, DX
	CMPQ    BX, DX
	CMOVQLT BX, DX
	SUBQ    DX, BX
	TESTQ   DX, DX
	JZ      gfifma_tail

gfifma_blocks:
	GF512_IFMA_BLOCK
	DECQ  DX
	JNZ   gfifma_blocks
	TESTQ BX, BX
	JZ    gfifma_tail
	GF512_IFMA_MERGE8
	GF512_IFMA_ZERO_HI
	JMP   gfifma_run

gfifma_tail:
	ANDQ        $7, CX
	JZ          gfifma_reduce
	MOVQ        $1, AX
	SHLQ        CX, AX
	DECQ        AX
	KMOVW       AX, K2
	VPMOVZXDQ.Z (SI), K2, Z16
	GF512_IFMA_LANES

gfifma_reduce:
	GF512_IFMA_MERGE8

	// Transpose-reduce: qword l of Z0 becomes the sum of all eight
	// qwords of lane accumulator l (eight values below 2⁴⁴ each).
	GF512_PAIRSUM(Z0, Z1, Z16, Z20)
	GF512_PAIRSUM(Z2, Z3, Z17, Z21)
	GF512_PAIRSUM(Z4, Z5, Z18, Z22)
	GF512_PAIRSUM(Z6, Z7, Z19, Z23)
	VSHUFI64X2 $0x44, Z17, Z16, Z0
	VSHUFI64X2 $0xEE, Z17, Z16, Z1
	VPADDQ     Z1, Z0, Z0
	VSHUFI64X2 $0x44, Z19, Z18, Z2
	VSHUFI64X2 $0xEE, Z19, Z18, Z3
	VPADDQ     Z3, Z2, Z2
	VSHUFI64X2 $0x88, Z2, Z0, Z4
	VSHUFI64X2 $0xDD, Z2, Z0, Z5
	VPADDQ     Z5, Z4, Z0
	GF512_FINISH(Z0, Z1)
	VPMOVQD    Z0, K1, (R9)
	VZEROUPPER
	RET

// GF512_DOT4_ROWS widens the four o_t chunks and accumulates their
// products with the shared chunk in Z8.
#define GF512_DOT4_ROWS \
	VPMOVZXDQ (R10), Z16; \
	VPMOVZXDQ (R11), Z17; \
	VPMOVZXDQ (R12), Z18; \
	VPMOVZXDQ (R13), Z19; \
	VPMULUDQ  Z8, Z16, Z16; \
	VPMULUDQ  Z8, Z17, Z17; \
	VPMULUDQ  Z8, Z18, Z18; \
	VPMULUDQ  Z8, Z19, Z19; \
	VPADDQ    Z16, Z0, Z0; \
	VPADDQ    Z17, Z1, Z1; \
	VPADDQ    Z18, Z2, Z2; \
	VPADDQ    Z19, Z3, Z3

#define GF512_DOT4_BLOCK \
	VPMOVZXDQ (SI), Z8; \
	GF512_DOT4_ROWS; \
	ADDQ $32, SI; \
	ADDQ $32, R10; \
	ADDQ $32, R11; \
	ADDQ $32, R12; \
	ADDQ $32, R13

#define GF512_DOT4_FOLD \
	GF512_FOLD(Z0, Z16); \
	GF512_FOLD(Z1, Z17); \
	GF512_FOLD(Z2, Z18); \
	GF512_FOLD(Z3, Z19)

// func gfDot4AVX512(dst, s, o0, o1, o2, o3 *uint32, n int, mask uint64)
//
// Four inner products sharing one operand: dst[t] = s · o_t over
// GF(2³¹−1) for the t selected by the low four mask bits. The shared
// chunk is widened once per 8 columns for all four o_t — the multi-row
// tile of the single-x mat-vec (s = x, o_t = four A rows) and the
// pack-free path of the batch sweep (s = the A row, o_t = up to four x
// lanes): lane groups too narrow for gfTile8IFMA, and every lane group on
// a CPU without AVX512-IFMA. Folds are lazy: after a fold an accumulator
// is below 2³³ + 2³¹, a product of two elements is below 2⁶², and
// 3·2⁶² + 2³³ + 2³¹ < 2⁶⁴, so the loop folds after every third column
// block and at most two full blocks plus the masked tail block reach the
// final fold. The column tail is opmasked; callers alias unused o_t onto
// a valid one.
TEXT ·gfDot4AVX512(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), R9
	MOVQ         s+8(FP), SI
	MOVQ         o0+16(FP), R10
	MOVQ         o1+24(FP), R11
	MOVQ         o2+32(FP), R12
	MOVQ         o3+40(FP), R13
	MOVQ         n+48(FP), CX
	MOVQ         mask+56(FP), AX
	KMOVW        AX, K1
	VPBROADCASTQ gfP31q<>(SB), Z31
	VPBROADCASTQ gfP31m1q<>(SB), Z30
	VPXORQ       Z0, Z0, Z0
	VPXORQ       Z1, Z1, Z1
	VPXORQ       Z2, Z2, Z2
	VPXORQ       Z3, Z3, Z3
	MOVQ         CX, BX
	SHRQ         $3, BX
	CMPQ         BX, $3
	JL           gfdot4_rem

gfdot4_loop3:
	GF512_DOT4_BLOCK
	GF512_DOT4_BLOCK
	GF512_DOT4_BLOCK
	GF512_DOT4_FOLD
	SUBQ $3, BX
	CMPQ BX, $3
	JGE  gfdot4_loop3

gfdot4_rem:
	TESTQ BX, BX
	JZ    gfdot4_tail

gfdot4_rem1:
	GF512_DOT4_BLOCK
	DECQ BX
	JNZ  gfdot4_rem1

gfdot4_tail:
	ANDQ        $7, CX
	JZ          gfdot4_reduce
	MOVQ        $1, AX
	SHLQ        CX, AX
	DECQ        AX
	KMOVW       AX, K2
	VPMOVZXDQ.Z (SI), K2, Z8
	VPMOVZXDQ.Z (R10), K2, Z16
	VPMOVZXDQ.Z (R11), K2, Z17
	VPMOVZXDQ.Z (R12), K2, Z18
	VPMOVZXDQ.Z (R13), K2, Z19
	VPMULUDQ    Z8, Z16, Z16
	VPMULUDQ    Z8, Z17, Z17
	VPMULUDQ    Z8, Z18, Z18
	VPMULUDQ    Z8, Z19, Z19
	VPADDQ      Z16, Z0, Z0
	VPADDQ      Z17, Z1, Z1
	VPADDQ      Z18, Z2, Z2
	VPADDQ      Z19, Z3, Z3

gfdot4_reduce:
	GF512_DOT4_FOLD

	// Transpose-reduce into the low four qwords of Z0.
	GF512_PAIRSUM(Z0, Z1, Z16, Z20)
	GF512_PAIRSUM(Z2, Z3, Z17, Z21)
	VSHUFI64X2 $0x44, Z17, Z16, Z0
	VSHUFI64X2 $0xEE, Z17, Z16, Z1
	VPADDQ     Z1, Z0, Z0
	VSHUFI64X2 $0x88, Z0, Z0, Z4
	VSHUFI64X2 $0xDD, Z0, Z0, Z5
	VPADDQ     Z5, Z4, Z0
	GF512_FINISH(Z0, Z1)
	VPMOVQD    Y0, K1, (R9)
	VZEROUPPER
	RET

// func gfAxpyAVX512(dst *uint32, c uint32, src *uint32, n int)
//
// dst[i] += c·src[i] mod 2³¹−1, sixteen elements per iteration as two
// interleaved 8-lane 64-bit chains: widen dwords to qwords, VPMULUDQ the
// 31-bit operands into 62-bit products, add dst, then two Mersenne folds
// and one opmasked subtract bring each lane into [0, p); VPMOVQD narrows
// the qword lanes straight back to memory. Exact — same values as the
// scalar fold. n must be a multiple of 8.
TEXT ·gfAxpyAVX512(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVL         c+8(FP), AX
	MOVQ         src+16(FP), SI
	MOVQ         n+24(FP), CX
	VPBROADCASTQ AX, Z0
	VPBROADCASTQ gfP31q<>(SB), Z12
	VPBROADCASTQ gfP31m1q<>(SB), Z13
	MOVQ         CX, BX
	SHRQ         $4, BX
	JZ           gfaxpy512_tail8

gfaxpy512_loop16:
	VPMOVZXDQ (SI), Z1
	VPMOVZXDQ 32(SI), Z5
	VPMOVZXDQ (DI), Z2
	VPMOVZXDQ 32(DI), Z6
	VPMULUDQ  Z0, Z1, Z1
	VPMULUDQ  Z0, Z5, Z5
	VPADDQ    Z2, Z1, Z1
	VPADDQ    Z6, Z5, Z5

	// fold 1: x = (x >> 31) + (x & p)
	VPSRLQ $31, Z1, Z2
	VPSRLQ $31, Z5, Z6
	VPANDQ Z12, Z1, Z1
	VPANDQ Z12, Z5, Z5
	VPADDQ Z2, Z1, Z1
	VPADDQ Z6, Z5, Z5

	// fold 2
	VPSRLQ $31, Z1, Z2
	VPSRLQ $31, Z5, Z6
	VPANDQ Z12, Z1, Z1
	VPANDQ Z12, Z5, Z5
	VPADDQ Z2, Z1, Z1
	VPADDQ Z6, Z5, Z5

	// conditional subtract: x -= p when x > p-1
	VPCMPGTQ Z13, Z1, K2
	VPCMPGTQ Z13, Z5, K3
	VPSUBQ   Z12, Z1, K2, Z1
	VPSUBQ   Z12, Z5, K3, Z5

	// narrow qword lanes back to dwords and store
	VPMOVQD Z1, (DI)
	VPMOVQD Z5, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    BX
	JNZ     gfaxpy512_loop16

gfaxpy512_tail8:
	TESTQ     $8, CX
	JZ        gfaxpy512_done
	VPMOVZXDQ (SI), Z1
	VPMOVZXDQ (DI), Z2
	VPMULUDQ  Z0, Z1, Z1
	VPADDQ    Z2, Z1, Z1
	VPSRLQ    $31, Z1, Z2
	VPANDQ    Z12, Z1, Z1
	VPADDQ    Z2, Z1, Z1
	VPSRLQ    $31, Z1, Z2
	VPANDQ    Z12, Z1, Z1
	VPADDQ    Z2, Z1, Z1
	VPCMPGTQ  Z13, Z1, K2
	VPSUBQ    Z12, Z1, K2, Z1
	VPMOVQD   Z1, (DI)

gfaxpy512_done:
	VZEROUPPER
	RET
