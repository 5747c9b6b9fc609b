// SIMD kernels for the packed (transposed-weight) affine layer and the
// elementwise passes of a training step, plus the CPUID/XGETBV probes that
// gate them. Portable bodies with the same contracts live in affine.go.
//
// The affine kernel vectorizes across outputs: weights are input-major
// (wt[i*nOut+o]), so the outputs of a block load as unit-stride vectors
// while x[i*xStride] broadcasts. Full blocks (16 outputs on AVX2, 32 on
// AVX-512) keep four accumulator chains in flight; the fewer outputs left
// after them run under lane masks in passes over the inputs of two (AVX2)
// or three (AVX-512) chains at once, 8 or 24 outputs a pass. Each output
// element still accumulates in ascending input order starting from its
// bias, with a separate VMULPD and VADDPD rounding per term (no FMA
// contraction), so results are bitwise identical to the scalar kernels.
// The live-input bodies (affineRowTLive*) keep that contract over only the
// inputs set in a bit mask, walked in ascending order.
// The elementwise kernels (ReLU, ReLU-copy, ReLU mask, Adam) perform per
// element exactly the scalar code's operations in its order, each with its
// own rounding, and so do the planner's two (shifted accumulate,
// max-plane). The softmax body's exponentials are math.Exp's own FMA
// sequence run lane by lane, so they fuse exactly where math.Exp fuses.

#include "textflag.h"

// lanes is the lane index of each element of a YMM register: the AVX2
// remainder compares it against the outputs left to build its masks.
DATA lanes<>+0(SB)/8, $0
DATA lanes<>+8(SB)/8, $1
DATA lanes<>+16(SB)/8, $2
DATA lanes<>+24(SB)/8, $3
GLOBL lanes<>(SB), RODATA|NOPTR, $32

// func affineRowTAVX2(dst, bias, x, wt *float64, nIn, nOut, xStride int)
//
// Blocks of 16 outputs, four YMM chains each, then the up to 15 remaining
// outputs in masked passes of two VMASKMOVPD chains, 8 outputs a pass
// (masked-off lanes load as zero without faulting and are not stored).
// A pass keeps two chains: with four, the dead chains' masked loads made a
// 5-output remainder slower than a 4- and a 1-wide block.
TEXT ·affineRowTAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ bias+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ wt+24(FP), CX
	MOVQ nIn+32(FP), R8
	MOVQ nOut+40(FP), R9
	MOVQ xStride+48(FP), BX
	SHLQ $3, BX               // x element stride in bytes (xStride*8)
	MOVQ R9, R10
	SHLQ $3, R10              // wt row stride in bytes (nOut*8)
	XORQ R11, R11             // o := 0

o16:	// blocks of 16 outputs
	MOVQ R9, AX
	SUBQ R11, AX
	CMPQ AX, $16
	JLT  or
	VMOVUPD (SI)(R11*8), Y0   // accumulators start from the bias
	VMOVUPD 32(SI)(R11*8), Y1
	VMOVUPD 64(SI)(R11*8), Y2
	VMOVUPD 96(SI)(R11*8), Y3
	LEAQ (CX)(R11*8), R12     // &wt[0*nOut+o]
	MOVQ DX, R13              // &x[0]
	MOVQ R8, R14              // i countdown
i16:
	TESTQ R14, R14
	JZ    s16
	VBROADCASTSD (R13), Y4
	VMOVUPD (R12), Y5
	VMOVUPD 32(R12), Y6
	VMOVUPD 64(R12), Y7
	VMOVUPD 96(R12), Y8
	VMULPD Y4, Y5, Y5
	VMULPD Y4, Y6, Y6
	VMULPD Y4, Y7, Y7
	VMULPD Y4, Y8, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ BX, R13
	ADDQ R10, R12
	DECQ R14
	JMP  i16
s16:
	VMOVUPD Y0, (DI)(R11*8)
	VMOVUPD Y1, 32(DI)(R11*8)
	VMOVUPD Y2, 64(DI)(R11*8)
	VMOVUPD Y3, 96(DI)(R11*8)
	ADDQ $16, R11
	JMP  o16

or:	// the r = nOut-o < 16 remaining outputs, up to 8 per pass of two
	// VMASKMOVPD chains; lane l of chain v is live (sign bit of its mask in
	// Y12/Y13 set) when 4v+l < min(r, 8). CX, SI and DI step to wt[o],
	// bias[o] and dst[o]; R9 counts the outputs left.
	SUBQ R11, R9
	JZ   done
	LEAQ (CX)(R11*8), CX
	LEAQ (SI)(R11*8), SI
	LEAQ (DI)(R11*8), DI
	VMOVDQU lanes<>(SB), Y10  // 0, 1, 2, 3
	MOVQ $4, AX
	VMOVQ AX, X11
	VPBROADCASTQ X11, Y11
rpass:
	MOVQ R9, AX
	CMPQ AX, $8
	JLE  rmask
	MOVQ $8, AX
rmask:
	VMOVQ AX, X9
	VPBROADCASTQ X9, Y9       // outputs this pass, in every lane
	VPCMPGTQ Y10, Y9, Y12     // n > l
	VPSUBQ Y11, Y9, Y9
	VPCMPGTQ Y10, Y9, Y13     // n-4 > l
	VMASKMOVPD (SI), Y12, Y0
	VMASKMOVPD 32(SI), Y13, Y1
	MOVQ CX, R12
	MOVQ DX, R13
	MOVQ R8, R14
ri:
	TESTQ R14, R14
	JZ    rs
	VBROADCASTSD (R13), Y4
	VMASKMOVPD (R12), Y12, Y5
	VMASKMOVPD 32(R12), Y13, Y6
	VMULPD Y4, Y5, Y5
	VMULPD Y4, Y6, Y6
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	ADDQ BX, R13
	ADDQ R10, R12
	DECQ R14
	JMP  ri
rs:
	VMASKMOVPD Y0, Y12, (DI)
	VMASKMOVPD Y1, Y13, 32(DI)
	LEAQ (CX)(AX*8), CX
	LEAQ (SI)(AX*8), SI
	LEAQ (DI)(AX*8), DI
	SUBQ AX, R9
	JNZ  rpass

done:
	VZEROUPPER
	RET

// func affineRowTAVX512(dst, bias, x, wt *float64, nIn, nOut, xStride int)
//
// Same contract as affineRowTAVX2 on 512-bit vectors: blocks of 32 outputs
// accumulate from the bias in ascending input order with separate
// VMULPD/VADDPD roundings, then the up to 31 remaining outputs run in
// passes of three ZMM chains under K-masks, 24 outputs a pass (zeroing
// loads, masked stores: masked-off lanes neither fault nor write).
TEXT ·affineRowTAVX512(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ bias+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ wt+24(FP), CX
	MOVQ nIn+32(FP), R8
	MOVQ nOut+40(FP), R9
	MOVQ xStride+48(FP), BX
	SHLQ $3, BX               // x element stride in bytes (xStride*8)
	MOVQ R9, R10
	SHLQ $3, R10              // wt row stride in bytes (nOut*8)
	XORQ R11, R11             // o := 0

z32:	// blocks of 32 outputs
	MOVQ R9, AX
	SUBQ R11, AX
	CMPQ AX, $32
	JLT  zr
	VMOVUPD (SI)(R11*8), Z0
	VMOVUPD 64(SI)(R11*8), Z1
	VMOVUPD 128(SI)(R11*8), Z2
	VMOVUPD 192(SI)(R11*8), Z3
	LEAQ (CX)(R11*8), R12
	MOVQ DX, R13
	MOVQ R8, R14
zi32:
	TESTQ R14, R14
	JZ    zs32
	VBROADCASTSD (R13), Z4
	VMOVUPD (R12), Z5
	VMOVUPD 64(R12), Z6
	VMOVUPD 128(R12), Z7
	VMOVUPD 192(R12), Z8
	VMULPD Z4, Z5, Z5
	VMULPD Z4, Z6, Z6
	VMULPD Z4, Z7, Z7
	VMULPD Z4, Z8, Z8
	VADDPD Z5, Z0, Z0
	VADDPD Z6, Z1, Z1
	VADDPD Z7, Z2, Z2
	VADDPD Z8, Z3, Z3
	ADDQ BX, R13
	ADDQ R10, R12
	DECQ R14
	JMP  zi32
zs32:
	VMOVUPD Z0, (DI)(R11*8)
	VMOVUPD Z1, 64(DI)(R11*8)
	VMOVUPD Z2, 128(DI)(R11*8)
	VMOVUPD Z3, 192(DI)(R11*8)
	ADDQ $32, R11
	JMP  z32

zr:	// the r = nOut-o < 32 remaining outputs, up to 24 per pass of three
	// chains (the TTP's 21 and 22 in one; a dead fourth measured about a
	// quarter slower per pass). K1-K3 hold lanes 8v .. 8v+7 of the pass,
	// live when below min(r, 24); masked-off lanes load as zero and are
	// never stored. AX, SI and DI step to wt[o], bias[o] and dst[o]; R9
	// counts the outputs left; CX holds a pass's count for the shift.
	SUBQ R11, R9
	JZ   zdone
	LEAQ (CX)(R11*8), AX
	LEAQ (SI)(R11*8), SI
	LEAQ (DI)(R11*8), DI
zpass:
	MOVQ R9, CX
	CMPQ CX, $24
	JLE  zmask
	MOVQ $24, CX
zmask:
	MOVL $1, R13
	SHLL CX, R13
	DECL R13                  // bit 8v+l set: lane l of vector v is live
	KMOVW R13, K1
	SHRL $8, R13
	KMOVW R13, K2
	SHRL $8, R13
	KMOVW R13, K3
	VMOVUPD.Z (SI), K1, Z0
	VMOVUPD.Z 64(SI), K2, Z1
	VMOVUPD.Z 128(SI), K3, Z2
	MOVQ AX, R12
	MOVQ DX, R13
	MOVQ R8, R14
zi:
	TESTQ R14, R14
	JZ    zs
	VBROADCASTSD (R13), Z4
	VMOVUPD.Z (R12), K1, Z5
	VMOVUPD.Z 64(R12), K2, Z6
	VMOVUPD.Z 128(R12), K3, Z7
	VMULPD Z4, Z5, Z5
	VMULPD Z4, Z6, Z6
	VMULPD Z4, Z7, Z7
	VADDPD Z5, Z0, Z0
	VADDPD Z6, Z1, Z1
	VADDPD Z7, Z2, Z2
	ADDQ BX, R13
	ADDQ R10, R12
	DECQ R14
	JMP  zi
zs:
	VMOVUPD Z0, K1, (DI)
	VMOVUPD Z1, K2, 64(DI)
	VMOVUPD Z2, K3, 128(DI)
	LEAQ (AX)(CX*8), AX
	LEAQ (SI)(CX*8), SI
	LEAQ (DI)(CX*8), DI
	SUBQ CX, R9
	JNZ  zpass

zdone:
	VZEROUPPER
	RET

// func affineRowTLiveAVX2(dst, bias, x, wt *float64, live *uint64, nIn, nOut, xStride int)
//
// affineRowTAVX2's blocks of 16 and masked passes of 8 with the input loop
// replaced by a walk over the set bits of live, word by word (R11 is the
// word's first input): BSF finds the lowest live input, LEA/AND clears it,
// and two multiplies turn it into the byte offsets of its weight row and
// its x. CX, SI and DI step to wt[o], bias[o] and dst[o] block by block;
// R9 counts the outputs left.
TEXT ·affineRowTLiveAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ bias+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ wt+24(FP), CX
	MOVQ live+32(FP), R12
	MOVQ nIn+40(FP), R8
	MOVQ nOut+48(FP), R9
	MOVQ xStride+56(FP), BX
	SHLQ $3, BX               // x element stride in bytes (xStride*8)
	MOVQ R9, R10
	SHLQ $3, R10              // wt row stride in bytes (nOut*8)
	ADDQ $63, R8
	ANDQ $-64, R8             // the word walk's end: nIn rounded up to 64

lt16:	// blocks of 16 outputs
	CMPQ R9, $16
	JLT  ltr
	VMOVUPD (SI), Y0          // accumulators start from the bias
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	XORQ R11, R11
lt16w:
	CMPQ R11, R8
	JGE  lts16
	MOVQ R11, AX
	SHRQ $6, AX
	MOVQ (R12)(AX*8), R13     // the word's live bits
	TESTQ R13, R13
	JZ    lt16n
lt16b:
	XORL R14, R14            // BSF keeps its destination on a zero source: break that dependency
	BSFQ R13, R14
	ADDQ R11, R14             // i, the lowest live input
	MOVQ R14, AX
	IMULQ R10, AX             // i*nOut*8
	IMULQ BX, R14             // i*xStride*8
	VBROADCASTSD (DX)(R14*1), Y4
	VMOVUPD (CX)(AX*1), Y5
	VMOVUPD 32(CX)(AX*1), Y6
	VMOVUPD 64(CX)(AX*1), Y7
	VMOVUPD 96(CX)(AX*1), Y8
	VMULPD Y4, Y5, Y5
	VMULPD Y4, Y6, Y6
	VMULPD Y4, Y7, Y7
	VMULPD Y4, Y8, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	LEAQ -1(R13), AX
	ANDQ AX, R13              // clear it; ZF when the word is done
	JNZ   lt16b
lt16n:
	ADDQ $64, R11
	JMP  lt16w
lts16:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, CX
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $16, R9
	JMP  lt16

ltr:	// the fewer than 16 outputs left, up to 8 per pass of two VMASKMOVPD
	// chains (masks in Y12/Y13, built as in affineRowTAVX2)
	TESTQ R9, R9
	JZ    ltdone
	VMOVDQU lanes<>(SB), Y10
	MOVQ $4, AX
	VMOVQ AX, X11
	VPBROADCASTQ X11, Y11
ltpass:
	MOVQ R9, AX
	CMPQ AX, $8
	JLE  ltmask
	MOVQ $8, AX
ltmask:
	VMOVQ AX, X9
	VPBROADCASTQ X9, Y9
	VPCMPGTQ Y10, Y9, Y12
	VPSUBQ Y11, Y9, Y9
	VPCMPGTQ Y10, Y9, Y13
	VMASKMOVPD (SI), Y12, Y0
	VMASKMOVPD 32(SI), Y13, Y1
	XORQ R11, R11
ltrw:
	CMPQ R11, R8
	JGE  ltrs
	MOVQ R11, AX
	SHRQ $6, AX
	MOVQ (R12)(AX*8), R13
	TESTQ R13, R13
	JZ    ltrn
ltrb:
	XORL R14, R14            // BSF keeps its destination on a zero source: break that dependency
	BSFQ R13, R14
	ADDQ R11, R14
	MOVQ R14, AX
	IMULQ R10, AX
	IMULQ BX, R14
	VBROADCASTSD (DX)(R14*1), Y4
	VMASKMOVPD (CX)(AX*1), Y12, Y5
	VMASKMOVPD 32(CX)(AX*1), Y13, Y6
	VMULPD Y4, Y5, Y5
	VMULPD Y4, Y6, Y6
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	LEAQ -1(R13), AX
	ANDQ AX, R13
	JNZ   ltrb
ltrn:
	ADDQ $64, R11
	JMP  ltrw
ltrs:
	VMASKMOVPD Y0, Y12, (DI)
	VMASKMOVPD Y1, Y13, 32(DI)
	MOVQ R9, AX
	CMPQ AX, $8
	JLE  ltstep
	MOVQ $8, AX
ltstep:
	LEAQ (CX)(AX*8), CX
	LEAQ (SI)(AX*8), SI
	LEAQ (DI)(AX*8), DI
	SUBQ AX, R9
	JNZ  ltpass

ltdone:
	VZEROUPPER
	RET

// func affineRowTLiveAVX512(dst, bias, x, wt *float64, live *uint64, nIn, nOut, xStride int)
//
// Blocks of 64 outputs in eight chains, then affineRowTAVX512's K-masked
// passes of 24, over the live inputs walked as in affineRowTLiveAVX2. The
// wide block lets the walk's scalar work run beside twice the vector work
// it has per input in a 32-wide block; a row of 32 to 63 outputs (no
// trainer shape) takes two or three passes. A pass's lane count (AX) sets
// bits 0 .. count-1 of R13 through BTS, which leaves CX to the weights.
TEXT ·affineRowTLiveAVX512(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ bias+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ wt+24(FP), CX
	MOVQ live+32(FP), R12
	MOVQ nIn+40(FP), R8
	MOVQ nOut+48(FP), R9
	MOVQ xStride+56(FP), BX
	SHLQ $3, BX
	MOVQ R9, R10
	SHLQ $3, R10
	ADDQ $63, R8
	ANDQ $-64, R8

lz64:	// blocks of 64 outputs, eight chains: per live input the bit walk's
	// scalar work then runs beside twice the vector work it does for 32
	CMPQ R9, $64
	JLT  lzr
	VMOVUPD (SI), Z0
	VMOVUPD 64(SI), Z1
	VMOVUPD 128(SI), Z2
	VMOVUPD 192(SI), Z3
	VMOVUPD 256(SI), Z4
	VMOVUPD 320(SI), Z5
	VMOVUPD 384(SI), Z6
	VMOVUPD 448(SI), Z7
	XORQ R11, R11
lz64w:
	CMPQ R11, R8
	JGE  lzs64
	MOVQ R11, AX
	SHRQ $6, AX
	MOVQ (R12)(AX*8), R13
	TESTQ R13, R13
	JZ    lz64n
lz64b:
	XORL R14, R14            // BSF keeps its destination on a zero source: break that dependency
	BSFQ R13, R14
	ADDQ R11, R14
	MOVQ R14, AX
	IMULQ R10, AX
	IMULQ BX, R14
	VBROADCASTSD (DX)(R14*1), Z16
	VMOVUPD (CX)(AX*1), Z8
	VMOVUPD 64(CX)(AX*1), Z9
	VMOVUPD 128(CX)(AX*1), Z10
	VMOVUPD 192(CX)(AX*1), Z11
	VMOVUPD 256(CX)(AX*1), Z12
	VMOVUPD 320(CX)(AX*1), Z13
	VMOVUPD 384(CX)(AX*1), Z14
	VMOVUPD 448(CX)(AX*1), Z15
	VMULPD Z16, Z8, Z8
	VMULPD Z16, Z9, Z9
	VMULPD Z16, Z10, Z10
	VMULPD Z16, Z11, Z11
	VMULPD Z16, Z12, Z12
	VMULPD Z16, Z13, Z13
	VMULPD Z16, Z14, Z14
	VMULPD Z16, Z15, Z15
	VADDPD Z8, Z0, Z0
	VADDPD Z9, Z1, Z1
	VADDPD Z10, Z2, Z2
	VADDPD Z11, Z3, Z3
	VADDPD Z12, Z4, Z4
	VADDPD Z13, Z5, Z5
	VADDPD Z14, Z6, Z6
	VADDPD Z15, Z7, Z7
	LEAQ -1(R13), AX
	ANDQ AX, R13
	JNZ   lz64b
lz64n:
	ADDQ $64, R11
	JMP  lz64w
lzs64:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	ADDQ $512, CX
	ADDQ $512, SI
	ADDQ $512, DI
	SUBQ $64, R9
	JMP  lz64

lzr:	// the fewer than 64 outputs left, up to 24 per pass of three chains
	TESTQ R9, R9
	JZ    lzdone
lzpass:
	MOVQ R9, AX
	CMPQ AX, $24
	JLE  lzmask
	MOVQ $24, AX
lzmask:
	XORL R13, R13
	BTSQ AX, R13
	DECQ R13                  // bit 8v+l set: lane l of vector v is live
	KMOVW R13, K1
	SHRQ $8, R13
	KMOVW R13, K2
	SHRQ $8, R13
	KMOVW R13, K3
	VMOVUPD.Z (SI), K1, Z0
	VMOVUPD.Z 64(SI), K2, Z1
	VMOVUPD.Z 128(SI), K3, Z2
	XORQ R11, R11
lzrw:
	CMPQ R11, R8
	JGE  lzrs
	MOVQ R11, AX
	SHRQ $6, AX
	MOVQ (R12)(AX*8), R13
	TESTQ R13, R13
	JZ    lzrn
lzrb:
	XORL R14, R14            // BSF keeps its destination on a zero source: break that dependency
	BSFQ R13, R14
	ADDQ R11, R14
	MOVQ R14, AX
	IMULQ R10, AX
	IMULQ BX, R14
	VBROADCASTSD (DX)(R14*1), Z4
	VMOVUPD.Z (CX)(AX*1), K1, Z5
	VMOVUPD.Z 64(CX)(AX*1), K2, Z6
	VMOVUPD.Z 128(CX)(AX*1), K3, Z7
	VMULPD Z4, Z5, Z5
	VMULPD Z4, Z6, Z6
	VMULPD Z4, Z7, Z7
	VADDPD Z5, Z0, Z0
	VADDPD Z6, Z1, Z1
	VADDPD Z7, Z2, Z2
	LEAQ -1(R13), AX
	ANDQ AX, R13
	JNZ   lzrb
lzrn:
	ADDQ $64, R11
	JMP  lzrw
lzrs:
	VMOVUPD Z0, K1, (DI)
	VMOVUPD Z1, K2, 64(DI)
	VMOVUPD Z2, K3, 128(DI)
	MOVQ R9, AX
	CMPQ AX, $24
	JLE  lzstep
	MOVQ $24, AX
lzstep:
	LEAQ (CX)(AX*8), CX
	LEAQ (SI)(AX*8), SI
	LEAQ (DI)(AX*8), DI
	SUBQ AX, R9
	JNZ  lzpass

lzdone:
	VZEROUPPER
	RET

// func reluVecAVX2(v *float64, n int)
//
// Branchless in-place ReLU: v[i] = v[i] > 0 ? v[i] : +0. VMAXPD with +0 as
// the second source reproduces the scalar rule exactly: negatives, -0, and
// NaN all map to +0, positives pass through.
TEXT ·reluVecAVX2(SB), NOSPLIT, $0-16
	MOVQ v+0(FP), DI
	MOVQ n+8(FP), CX
	VXORPD Y1, Y1, Y1
r4:
	CMPQ CX, $4
	JLT  rtail
	VMOVUPD (DI), Y0
	VMAXPD Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  r4
rtail:
	TESTQ CX, CX
	JZ    rdone
	VMOVSD (DI), X0
	VXORPD X1, X1, X1
	VMAXSD X1, X0, X0
	VMOVSD X0, (DI)
	ADDQ $8, DI
	DECQ CX
	JMP  rtail
rdone:
	VZEROUPPER
	RET

// func reluVecAVX512(v *float64, n int)
TEXT ·reluVecAVX512(SB), NOSPLIT, $0-16
	MOVQ v+0(FP), DI
	MOVQ n+8(FP), CX
	VPXORQ Z1, Z1, Z1
r8:
	CMPQ CX, $8
	JLT  r512tail
	VMOVUPD (DI), Z0
	VMAXPD Z1, Z0, Z0
	VMOVUPD Z0, (DI)
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  r8
r512tail:
	TESTQ CX, CX
	JZ    r512done
	VMOVSD (DI), X0
	VXORPD X1, X1, X1
	VMAXSD X1, X0, X0
	VMOVSD X0, (DI)
	ADDQ $8, DI
	DECQ CX
	JMP  r512tail
r512done:
	VZEROUPPER
	RET

// func reluCopyAVX2(dst, src *float64, n int)
//
// dst[i] = src[i] > 0 ? src[i] : +0 — reluVecAVX2's rule (VMAXPD against +0:
// negatives, -0 and NaN all become +0) written to a second buffer, so the
// trainer keeps the pre-activations for the backward mask.
TEXT ·reluCopyAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VXORPD Y1, Y1, Y1
c4:
	CMPQ CX, $4
	JLT  ctail
	VMOVUPD (SI), Y0
	VMAXPD Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  c4
ctail:
	TESTQ CX, CX
	JZ    cdone
	VMOVSD (SI), X0
	VMAXSD X1, X0, X0
	VMOVSD X0, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JMP  ctail
cdone:
	VZEROUPPER
	RET

// func maskNonPosAVX2(d, z *float64, n int)
//
// d[i] = +0 where z[i] <= 0, untouched elsewhere: the backward ReLU mask.
// The ordered compare is false for NaN, so a NaN pre-activation keeps its
// delta, like the scalar `if z <= 0`.
TEXT ·maskNonPosAVX2(SB), NOSPLIT, $0-24
	MOVQ d+0(FP), DI
	MOVQ z+8(FP), SI
	MOVQ n+16(FP), CX
	VXORPD Y1, Y1, Y1
m4:
	CMPQ CX, $4
	JLT  mtail
	VMOVUPD (SI), Y0
	VCMPPD $2, Y1, Y0, Y2     // z <= 0 (LE, ordered)
	VMOVUPD (DI), Y3
	VANDNPD Y3, Y2, Y3        // d &^ mask
	VMOVUPD Y3, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  m4
mtail:
	TESTQ CX, CX
	JZ    mdone
	VMOVSD (SI), X0
	VCMPSD $2, X1, X0, X2
	VMOVSD (DI), X3
	VANDNPD X3, X2, X3
	VMOVSD X3, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JMP  mtail
mdone:
	VZEROUPPER
	RET

// func liveMaskAVX2(mask *uint64, z *float64, rows, width int)
//
// liveMaskGo eight lanes at a time. VCMPPD's NGE_US predicate on (+0, z) is
// !(0 >= z) = !(z <= 0), true for z > 0 and for NaN; two VMOVMSKPD give a
// byte, which shifts into the word being built (R13) from its top, so after
// eight bytes the first is at bits 0-7. A row's last one to seven lanes load
// under VMASKMOVPD masks (the masked-off lanes read +0 and come out clear),
// and a word of fewer than eight bytes shifts down the bytes it lacks
// (CX). Each word is written whole, once.
TEXT ·liveMaskAVX2(SB), NOSPLIT, $0-32
	MOVQ mask+0(FP), DI
	MOVQ z+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ width+24(FP), R9
	TESTQ R9, R9
	JZ    lmdone
	VXORPD Y1, Y1, Y1
	VMOVDQU lanes<>(SB), Y2
	MOVQ $4, AX
	VMOVQ AX, X4
	VPBROADCASTQ X4, Y4       // 4 in every lane
lmrow:
	TESTQ R8, R8
	JZ    lmdone
	MOVQ R9, R10              // elements left in the row
lmword:
	XORQ R13, R13
	MOVQ $8, CX               // bytes still to shift in
lm8:
	CMPQ R10, $8
	JLT  lmtail
	VCMPPD $9, (SI), Y1, Y0   // !(0 >= z)
	VCMPPD $9, 32(SI), Y1, Y3
	VMOVMSKPD Y0, AX
	VMOVMSKPD Y3, BX
	SHLQ $4, BX
	ORQ  BX, AX
	SHRQ $8, R13
	SHLQ $56, AX
	ORQ  AX, R13
	ADDQ $64, SI
	SUBQ $8, R10
	DECQ CX
	JNZ  lm8
	MOVQ R13, (DI)            // a whole word
	ADDQ $8, DI
	TESTQ R10, R10
	JNZ  lmword
	JMP  lmnext
lmtail:	// 0-7 elements left, and at least one byte of the word to fill
	TESTQ R10, R10
	JZ    lmpart
	VMOVQ R10, X3
	VPBROADCASTQ X3, Y3
	VPCMPGTQ Y2, Y3, Y5       // lane < left
	VPSUBQ Y4, Y3, Y3
	VPCMPGTQ Y2, Y3, Y6       // lane+4 < left
	VMASKMOVPD (SI), Y5, Y0
	VMASKMOVPD 32(SI), Y6, Y3
	VCMPPD $6, Y1, Y0, Y0     // !(z <= 0)
	VCMPPD $6, Y1, Y3, Y3
	VMOVMSKPD Y0, AX
	VMOVMSKPD Y3, BX
	SHLQ $4, BX
	ORQ  BX, AX
	SHRQ $8, R13
	SHLQ $56, AX
	ORQ  AX, R13
	LEAQ (SI)(R10*8), SI
	DECQ CX
lmpart:
	SHLQ $3, CX
	SHRQ CX, R13              // the bytes never shifted in
	MOVQ R13, (DI)
	ADDQ $8, DI
lmnext:
	DECQ R8
	JMP  lmrow
lmdone:
	VZEROUPPER
	RET

// func allFiniteAVX2(v *float64, n int) bool
//
// Integer compares only, so subnormals cost no microcode assist: a lane is
// ±Inf or NaN when its exponent field (Y5) is all ones; the compares' results
// OR into Y1, and the answer is whether Y1 stayed zero.
TEXT ·allFiniteAVX2(SB), NOSPLIT, $0-17
	MOVQ v+0(FP), SI
	MOVQ n+8(FP), CX
	VPCMPEQQ Y5, Y5, Y5
	VPSRLQ $53, Y5, Y5
	VPSLLQ $52, Y5, Y5        // 0x7FF0000000000000 in every lane
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
af8:
	CMPQ CX, $8
	JLT  af1
	VPAND (SI), Y5, Y3
	VPAND 32(SI), Y5, Y4
	VPCMPEQQ Y5, Y3, Y3
	VPCMPEQQ Y5, Y4, Y4
	VPOR Y3, Y1, Y1
	VPOR Y4, Y2, Y2
	ADDQ $64, SI
	SUBQ $8, CX
	JMP  af8
af1:
	TESTQ CX, CX
	JZ    afdone
	VMOVQ (SI), X3            // zero-extends: the upper lanes test as finite
	VPAND Y5, Y3, Y3
	VPCMPEQQ Y5, Y3, Y3
	VPOR Y3, Y1, Y1
	ADDQ $8, SI
	DECQ CX
	JMP  af1
afdone:
	VPOR Y2, Y1, Y1
	VPTEST Y1, Y1
	SETEQ ret+16(FP)
	VZEROUPPER
	RET

// func adamStepAVX2(par, grad, mom, vel *float64, n int, k *adamConsts)
//
// One fused Adam pass; k holds {b1, 1-b1, b2, 1-b2, c1, c2, lr, eps}. Per
// element, in adamStepGo's order with one rounding per operation:
//
//	m = b1*m + (1-b1)*g
//	v = b2*v + ((1-b2)*g)*g
//	p = p - (lr*(m/c1)) / (sqrt(v/c2) + eps)
//
// Two divides and a square root per element bound it, so 256-bit vectors
// already run at the divider's pace; there is no 512-bit variant.
TEXT ·adamStepAVX2(SB), NOSPLIT, $0-48
	MOVQ par+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ mom+16(FP), DX
	MOVQ vel+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ k+40(FP), AX
	VBROADCASTSD 0(AX), Y8    // b1
	VBROADCASTSD 8(AX), Y9    // 1-b1
	VBROADCASTSD 16(AX), Y10  // b2
	VBROADCASTSD 24(AX), Y11  // 1-b2
	VBROADCASTSD 32(AX), Y12  // c1
	VBROADCASTSD 40(AX), Y13  // c2
	VBROADCASTSD 48(AX), Y14  // lr
	VBROADCASTSD 56(AX), Y15  // eps
a4:
	CMPQ CX, $4
	JLT  atail
	VMOVUPD (SI), Y0          // g
	VMULPD (DX), Y8, Y1       // b1*m
	VMULPD Y0, Y9, Y2         // (1-b1)*g
	VADDPD Y2, Y1, Y1         // m'
	VMOVUPD Y1, (DX)
	VMULPD (BX), Y10, Y3      // b2*v
	VMULPD Y0, Y11, Y4        // (1-b2)*g
	VMULPD Y0, Y4, Y4         // ... *g
	VADDPD Y4, Y3, Y3         // v'
	VMOVUPD Y3, (BX)
	VDIVPD Y12, Y1, Y1        // mh = m'/c1
	VDIVPD Y13, Y3, Y3        // vh = v'/c2
	VSQRTPD Y3, Y3
	VADDPD Y15, Y3, Y3        // sqrt(vh) + eps
	VMULPD Y1, Y14, Y1        // lr*mh
	VDIVPD Y3, Y1, Y1
	VMOVUPD (DI), Y5
	VSUBPD Y1, Y5, Y5         // p - step
	VMOVUPD Y5, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, BX
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  a4
atail:
	TESTQ CX, CX
	JZ    adone
	VMOVSD (SI), X0
	VMULSD (DX), X8, X1
	VMULSD X0, X9, X2
	VADDSD X2, X1, X1
	VMOVSD X1, (DX)
	VMULSD (BX), X10, X3
	VMULSD X0, X11, X4
	VMULSD X0, X4, X4
	VADDSD X4, X3, X3
	VMOVSD X3, (BX)
	VDIVSD X12, X1, X1
	VDIVSD X13, X3, X3
	VSQRTSD X3, X3, X3
	VADDSD X15, X3, X3
	VMULSD X1, X14, X1
	VDIVSD X3, X1, X1
	VMOVSD (DI), X5
	VSUBSD X1, X5, X5
	VMOVSD X5, (DI)
	ADDQ $8, SI
	ADDQ $8, DX
	ADDQ $8, BX
	ADDQ $8, DI
	DECQ CX
	JMP  atail
adone:
	VZEROUPPER
	RET

// func shiftedAccumAVX2(dst, src, p *float64, lo, off *int32, n, nK int)
//
// shiftedAccumGo's contract: for each k in ascending order with p[k] != 0
// and lo[k] < n, dst[i] += p[k]*src[i+off[k]] for lo[k] <= i < n, a VMULPD
// and a VADDPD per term. The vector blocks sit on dst's own 4-element grid
// (a scalar head runs up to it) whatever lo[k] is, so the dst loads of one k
// line up with the stores of the k before and forward from the store buffer;
// only the shifted src loads are unaligned.
TEXT ·shiftedAccumAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ p+16(FP), DX
	MOVQ lo+24(FP), R8
	MOVQ off+32(FP), R9
	MOVQ n+40(FP), R10
	MOVQ nK+48(FP), R11
	VXORPD X15, X15, X15
	XORQ R12, R12             // k := 0
sak:
	CMPQ R12, R11
	JGE  sadone
	VMOVSD (DX)(R12*8), X0    // p[k]
	VUCOMISD X15, X0
	JNE  sarun                // p[k] != 0
	JNP  sanext               // equal and ordered: +0 and -0 skip; NaN runs
sarun:
	MOVLQSX (R8)(R12*4), AX   // i := lo[k]
	MOVQ R10, CX
	SUBQ AX, CX               // elements left: n - i
	JLE  sanext
	MOVLQSX (R9)(R12*4), BX
	ADDQ AX, BX
	LEAQ (DI)(AX*8), R13      // d := &dst[i]
	LEAQ (SI)(BX*8), R14      // s := &src[i+off[k]]
	VBROADCASTSD X0, Y0
sahead:	// scalar until i reaches dst's 4-element grid
	TESTQ $3, AX
	JZ   sa8
	VMULSD (R14), X0, X1
	VADDSD (R13), X1, X1
	VMOVSD X1, (R13)
	ADDQ $8, R13
	ADDQ $8, R14
	INCQ AX
	DECQ CX
	JNZ  sahead
	JMP  sanext
sa8:
	SUBQ $8, CX
	JLT  sa4
sa8loop:
	VMULPD (R14), Y0, Y1
	VMULPD 32(R14), Y0, Y2
	VADDPD (R13), Y1, Y1
	VADDPD 32(R13), Y2, Y2
	VMOVUPD Y1, (R13)
	VMOVUPD Y2, 32(R13)
	ADDQ $64, R13
	ADDQ $64, R14
	SUBQ $8, CX
	JGE  sa8loop
sa4:
	ADDQ $8, CX               // 0..7 left
	CMPQ CX, $4
	JLT  satail
	VMULPD (R14), Y0, Y1
	VADDPD (R13), Y1, Y1
	VMOVUPD Y1, (R13)
	ADDQ $32, R13
	ADDQ $32, R14
	SUBQ $4, CX
satail:
	TESTQ CX, CX
	JZ   sanext
	VMULSD (R14), X0, X1
	VADDSD (R13), X1, X1
	VMOVSD X1, (R13)
	ADDQ $8, R13
	ADDQ $8, R14
	DECQ CX
	JMP  satail
sanext:
	INCQ R12
	JMP  sak
sadone:
	VZEROUPPER
	RET

// func maxPlaneAVX2(dst, base, c *float64, n, nQ, stride int)
//
// maxPlaneGo's contract: dst[i] starts as c[0]+base[i] and takes
// c[q]+base[q*stride+i] in ascending q when that is greater. A block of dst
// stays in registers over the whole q loop. VMAXPD with the candidate as
// first source and the running maximum as second is the scalar `if v > cur`:
// it returns the second source when either is NaN and when both are zeros,
// so ties, signed zeros and NaNs come out as in the portable body.
TEXT ·maxPlaneAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ base+8(FP), SI
	MOVQ c+16(FP), DX
	MOVQ n+24(FP), R8
	MOVQ nQ+32(FP), R9
	MOVQ stride+40(FP), R10
	SHLQ $3, R10              // row stride in bytes
	XORQ R11, R11             // i := 0

mp16:	// blocks of 16 elements
	MOVQ R8, AX
	SUBQ R11, AX
	CMPQ AX, $16
	JLT  mp4
	LEAQ (SI)(R11*8), R12     // &base[0*stride+i]
	VBROADCASTSD (DX), Y4
	VADDPD (R12), Y4, Y0
	VADDPD 32(R12), Y4, Y1
	VADDPD 64(R12), Y4, Y2
	VADDPD 96(R12), Y4, Y3
	MOVQ $1, R13              // q := 1
mq16:
	CMPQ R13, R9
	JGE  ms16
	ADDQ R10, R12
	VBROADCASTSD (DX)(R13*8), Y4
	VADDPD (R12), Y4, Y5
	VADDPD 32(R12), Y4, Y6
	VADDPD 64(R12), Y4, Y7
	VADDPD 96(R12), Y4, Y8
	VMAXPD Y0, Y5, Y0         // v > cur ? v : cur
	VMAXPD Y1, Y6, Y1
	VMAXPD Y2, Y7, Y2
	VMAXPD Y3, Y8, Y3
	INCQ R13
	JMP  mq16
ms16:
	VMOVUPD Y0, (DI)(R11*8)
	VMOVUPD Y1, 32(DI)(R11*8)
	VMOVUPD Y2, 64(DI)(R11*8)
	VMOVUPD Y3, 96(DI)(R11*8)
	ADDQ $16, R11
	JMP  mp16

mp4:	// blocks of 4 elements
	MOVQ R8, AX
	SUBQ R11, AX
	CMPQ AX, $4
	JLT  mp1
	LEAQ (SI)(R11*8), R12
	VBROADCASTSD (DX), Y4
	VADDPD (R12), Y4, Y0
	MOVQ $1, R13
mq4:
	CMPQ R13, R9
	JGE  ms4
	ADDQ R10, R12
	VBROADCASTSD (DX)(R13*8), Y4
	VADDPD (R12), Y4, Y5
	VMAXPD Y0, Y5, Y0
	INCQ R13
	JMP  mq4
ms4:
	VMOVUPD Y0, (DI)(R11*8)
	ADDQ $4, R11
	JMP  mp4

mp1:	// scalar tail elements
	CMPQ R11, R8
	JGE  mpdone
	LEAQ (SI)(R11*8), R12
	VMOVSD (DX), X4
	VADDSD (R12), X4, X0
	MOVQ $1, R13
mq1:
	CMPQ R13, R9
	JGE  ms1
	ADDQ R10, R12
	VMOVSD (DX)(R13*8), X4
	VADDSD (R12), X4, X5
	VMAXSD X0, X5, X0
	INCQ R13
	JMP  mq1
ms1:
	VMOVSD X0, (DI)(R11*8)
	INCQ R11
	JMP  mp1
mpdone:
	VZEROUPPER
	RET

// expdata holds, four lanes each, the constants of math.Exp's FMA sequence
// ($GOROOT/src/math/exp_amd64.s, the avxfma path: Shibata's SLEEF method,
// ISC'10) in the literals that file spells them with, plus the exponent
// bias and softmaxAVX2's range limit.
#define EXPQUAD(off, v) \
	DATA expdata<>+(off)(SB)/8, v; \
	DATA expdata<>+(off+8)(SB)/8, v; \
	DATA expdata<>+(off+16)(SB)/8, v; \
	DATA expdata<>+(off+24)(SB)/8, v

EXPQUAD(0, $1.4426950408889634073599246810018920)       // LOG2E
EXPQUAD(32, $0.69314718055966295651160180568695068359375) // LN2U
EXPQUAD(64, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
EXPQUAD(96, $0.0625)
EXPQUAD(128, $2.4801587301587301587e-5) // Taylor coefficients, 1/8! down
EXPQUAD(160, $1.9841269841269841270e-4)
EXPQUAD(192, $1.3888888888888888889e-3)
EXPQUAD(224, $8.3333333333333333333e-3)
EXPQUAD(256, $4.1666666666666666667e-2)
EXPQUAD(288, $1.6666666666666666667e-1)
EXPQUAD(320, $0.5)
EXPQUAD(352, $1.0)
EXPQUAD(384, $2.0)
EXPQUAD(416, $0x3FF)   // exponent bias (int64 lanes)
EXPQUAD(448, $-708.0)  // softmaxAVX2's least min-max
GLOBL expdata<>(SB), RODATA|NOPTR, $480

// EXP4 sets Y3 to math.Exp(Y3 - Y15), lane by lane, with archExp's
// operations in its order (k = round(x·LOG2E) to nearest even; r = (x -
// k·LN2U) - k·LN2L, each fused; r/16 through the Taylor polynomial, seven
// fused steps; four doubling steps y·(y+2); a fused +1; × 2^k). Y8-Y14 hold
// LOG2E, LN2U, LN2L, 0.0625, 2.0, 1.0 and the bias; it clobbers Y4-Y7. Only
// archExp's in-range path is here: the caller keeps x in [-708, 0], where
// archExp takes neither its overflow nor its denormal branch.
#define EXP4 \
	VSUBPD Y15, Y3, Y3; \
	VMULPD Y8, Y3, Y4; \
	VCVTPD2DQY Y4, X5; \
	VCVTDQ2PD X5, Y4; \
	VFNMADD231PD Y9, Y4, Y3; \
	VFNMADD231PD Y10, Y4, Y3; \
	VMULPD Y11, Y3, Y3; \
	VMOVUPD expdata<>+128(SB), Y6; \
	VFMADD213PD expdata<>+160(SB), Y3, Y6; \
	VFMADD213PD expdata<>+192(SB), Y3, Y6; \
	VFMADD213PD expdata<>+224(SB), Y3, Y6; \
	VFMADD213PD expdata<>+256(SB), Y3, Y6; \
	VFMADD213PD expdata<>+288(SB), Y3, Y6; \
	VFMADD213PD expdata<>+320(SB), Y3, Y6; \
	VFMADD213PD Y13, Y3, Y6; \
	VMULPD Y6, Y3, Y3; \
	VADDPD Y12, Y3, Y6; \
	VMULPD Y6, Y3, Y3; \
	VADDPD Y12, Y3, Y6; \
	VMULPD Y6, Y3, Y3; \
	VADDPD Y12, Y3, Y6; \
	VMULPD Y6, Y3, Y3; \
	VADDPD Y12, Y3, Y6; \
	VFMADD213PD Y13, Y6, Y3; \
	VPMOVSXDQ X5, Y7; \
	VPADDQ Y14, Y7, Y7; \
	VPSLLQ $52, Y7, Y7; \
	VMULPD Y7, Y3, Y3

// func softmaxAVX2(dst, x *float64, n int) bool
//
// softmaxGo's contract on 256-bit vectors, for n >= 1. A masked scan finds
// the max, the min and any NaN; unless no logit is NaN and min-max >= -708
// (ordered) it returns false having written nothing, and the caller runs
// the scalar body. Otherwise every exponential is EXP4 (math.Exp's bits on
// a CPU with FMA, which the gate requires), the sum runs in index order
// from +0 with one VADDSD per element, and each element is scaled by
// 1/sum. The n mod 4 tail runs under a VMASKMOVPD lane mask, its dead
// lanes set to the max (so they compute exp(0)) and never stored.
TEXT ·softmaxAVX2(SB), NOSPLIT, $0-25
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ CX, DX
	ANDQ $-4, DX              // elements in whole vectors
	MOVQ CX, AX
	SUBQ DX, AX               // tail lanes, n mod 4
	VMOVQ AX, X2
	VPBROADCASTQ X2, Y2
	VPCMPGTQ lanes<>(SB), Y2, Y2 // tail mask: lane l live when n mod 4 > l

	VBROADCASTSD (SI), Y6     // x[0]: the tail's dead lanes in the scan
	VMOVAPD Y6, Y0            // max
	VMOVAPD Y6, Y1            // min
	VXORPD Y4, Y4, Y4         // lanes that saw a NaN
	XORQ BX, BX
scan:
	CMPQ BX, DX
	JGE  scantail
	VMOVUPD (SI)(BX*8), Y3
	VMAXPD Y3, Y0, Y0
	VMINPD Y3, Y1, Y1
	VCMPPD $3, Y3, Y3, Y5     // unordered: NaN
	VORPD Y5, Y4, Y4
	ADDQ $4, BX
	JMP  scan
scantail:
	TESTQ AX, AX
	JZ    reduce
	VMASKMOVPD (SI)(BX*8), Y2, Y3
	VBLENDVPD Y2, Y3, Y6, Y3
	VMAXPD Y3, Y0, Y0
	VMINPD Y3, Y1, Y1
	VCMPPD $3, Y3, Y3, Y5
	VORPD Y5, Y4, Y4
reduce:
	VMOVMSKPD Y4, R8
	TESTQ R8, R8
	JNZ   scalar
	VEXTRACTF128 $1, Y0, X3
	VMAXPD X3, X0, X0
	VPERMILPD $1, X0, X3
	VMAXSD X3, X0, X0
	VEXTRACTF128 $1, Y1, X3
	VMINPD X3, X1, X1
	VPERMILPD $1, X1, X3
	VMINSD X3, X1, X1
	VSUBSD X0, X1, X3         // min - max
	VUCOMISD expdata<>+448(SB), X3
	JCS   scalar              // below -708, or unordered (Inf - Inf)

	VBROADCASTSD X0, Y15
	VMOVUPD expdata<>+0(SB), Y8
	VMOVUPD expdata<>+32(SB), Y9
	VMOVUPD expdata<>+64(SB), Y10
	VMOVUPD expdata<>+96(SB), Y11
	VMOVUPD expdata<>+384(SB), Y12
	VMOVUPD expdata<>+352(SB), Y13
	VMOVUPD expdata<>+416(SB), Y14
	XORQ BX, BX
exp:
	CMPQ BX, DX
	JGE  exptail
	VMOVUPD (SI)(BX*8), Y3
	EXP4
	VMOVUPD Y3, (DI)(BX*8)
	ADDQ $4, BX
	JMP  exp
exptail:
	TESTQ AX, AX
	JZ    sum
	VMASKMOVPD (SI)(BX*8), Y2, Y3
	VBLENDVPD Y2, Y3, Y15, Y3
	EXP4
	VMASKMOVPD Y3, Y2, (DI)(BX*8)
sum:
	VXORPD X3, X3, X3
	XORQ BX, BX
sumloop:
	VADDSD (DI)(BX*8), X3, X3
	INCQ BX
	CMPQ BX, CX
	JLT  sumloop
	VDIVSD X3, X13, X4        // 1/sum
	VBROADCASTSD X4, Y4
	XORQ BX, BX
norm:
	CMPQ BX, DX
	JGE  normtail
	VMULPD (DI)(BX*8), Y4, Y3
	VMOVUPD Y3, (DI)(BX*8)
	ADDQ $4, BX
	JMP  norm
normtail:
	TESTQ AX, AX
	JZ    done
	VMASKMOVPD (DI)(BX*8), Y2, Y3
	VMULPD Y4, Y3, Y3
	VMASKMOVPD Y3, Y2, (DI)(BX*8)
done:
	MOVB $1, ret+24(FP)
	VZEROUPPER
	RET
scalar:
	MOVB $0, ret+24(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
