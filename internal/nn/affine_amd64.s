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
// The elementwise kernels (ReLU, ReLU-copy, ReLU mask, Adam) perform per
// element exactly the scalar code's operations in its order, each with its
// own rounding, and so do the planner's two (shifted accumulate,
// max-plane).

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
