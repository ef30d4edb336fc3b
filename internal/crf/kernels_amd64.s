#include "textflag.h"

// AVX2 kernels for the CRF objective's label loops. Lanes run across labels
// y; every element keeps the Go reference's expression and summation order
// (kernels.go). Multiplies and adds are separate instructions, never FMA.
// Register use: CX = L, BX = y, R9 = row stride in bytes (8·L), X7/Y7 =
// zero or a broadcast scalar. A ZF=1, PF=0 result of VUCOMISD against zero
// means "equal to ±0"; a NaN sets PF and is not skipped.

// func forwardStepAVX2(cur, prev, trans, emit []float64)
TEXT ·forwardStepAVX2(SB), NOSPLIT, $0-96
	MOVQ cur_base+0(FP), DI
	MOVQ cur_len+8(FP), CX
	MOVQ prev_base+24(FP), SI
	MOVQ trans_base+48(FP), DX
	MOVQ emit_base+72(FP), R8
	MOVQ CX, R9
	SHLQ $3, R9
	VXORPD X7, X7, X7
	XORQ BX, BX

fwd16:
	LEAQ 16(BX), AX
	CMPQ AX, CX
	JGT  fwd4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ (DX)(BX*8), R10
	XORQ R11, R11

fwd16row:
	CMPQ     R11, CX
	JEQ      fwd16store
	VMOVSD   (SI)(R11*8), X4
	VUCOMISD X7, X4
	JPS      fwd16add
	JEQ      fwd16next

fwd16add:
	VBROADCASTSD X4, Y4
	VMULPD       (R10), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(R10), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(R10), Y4, Y8
	VADDPD       Y8, Y2, Y2
	VMULPD       96(R10), Y4, Y9
	VADDPD       Y9, Y3, Y3

fwd16next:
	ADDQ R9, R10
	INCQ R11
	JMP  fwd16row

fwd16store:
	VMULPD  (R8)(BX*8), Y0, Y0
	VMULPD  32(R8)(BX*8), Y1, Y1
	VMULPD  64(R8)(BX*8), Y2, Y2
	VMULPD  96(R8)(BX*8), Y3, Y3
	VMOVUPD Y0, (DI)(BX*8)
	VMOVUPD Y1, 32(DI)(BX*8)
	VMOVUPD Y2, 64(DI)(BX*8)
	VMOVUPD Y3, 96(DI)(BX*8)
	MOVQ    AX, BX
	JMP     fwd16

fwd4:
	LEAQ 4(BX), AX
	CMPQ AX, CX
	JGT  fwd1
	VXORPD Y0, Y0, Y0
	LEAQ (DX)(BX*8), R10
	XORQ R11, R11

fwd4row:
	CMPQ     R11, CX
	JEQ      fwd4store
	VMOVSD   (SI)(R11*8), X4
	VUCOMISD X7, X4
	JPS      fwd4add
	JEQ      fwd4next

fwd4add:
	VBROADCASTSD X4, Y4
	VMULPD       (R10), Y4, Y5
	VADDPD       Y5, Y0, Y0

fwd4next:
	ADDQ R9, R10
	INCQ R11
	JMP  fwd4row

fwd4store:
	VMULPD  (R8)(BX*8), Y0, Y0
	VMOVUPD Y0, (DI)(BX*8)
	MOVQ    AX, BX
	JMP     fwd4

fwd1:
	CMPQ BX, CX
	JEQ  fwdret
	VXORPD X0, X0, X0
	LEAQ (DX)(BX*8), R10
	XORQ R11, R11

fwd1row:
	CMPQ     R11, CX
	JEQ      fwd1store
	VMOVSD   (SI)(R11*8), X4
	VUCOMISD X7, X4
	JPS      fwd1add
	JEQ      fwd1next

fwd1add:
	VMULSD (R10), X4, X5
	VADDSD X5, X0, X0

fwd1next:
	ADDQ R9, R10
	INCQ R11
	JMP  fwd1row

fwd1store:
	VMULSD (R8)(BX*8), X0, X0
	VMOVSD X0, (DI)(BX*8)
	INCQ   BX
	JMP    fwd1

fwdret:
	VZEROUPPER
	RET

// func backwardStepAVX2(cur, next, transT, emit []float64, c float64)
TEXT ·backwardStepAVX2(SB), NOSPLIT, $0-104
	MOVQ         cur_base+0(FP), DI
	MOVQ         cur_len+8(FP), CX
	MOVQ         next_base+24(FP), SI
	MOVQ         transT_base+48(FP), DX
	MOVQ         emit_base+72(FP), R8
	VBROADCASTSD c+96(FP), Y7
	MOVQ         CX, R9
	SHLQ         $3, R9
	XORQ         BX, BX

bwd16:
	LEAQ 16(BX), AX
	CMPQ AX, CX
	JGT  bwd4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ (DX)(BX*8), R10
	XORQ R11, R11

bwd16row:
	CMPQ         R11, CX
	JEQ          bwd16store
	VBROADCASTSD (R8)(R11*8), Y4
	VBROADCASTSD (SI)(R11*8), Y5
	VMULPD       (R10), Y4, Y6
	VMULPD       Y5, Y6, Y6
	VADDPD       Y6, Y0, Y0
	VMULPD       32(R10), Y4, Y8
	VMULPD       Y5, Y8, Y8
	VADDPD       Y8, Y1, Y1
	VMULPD       64(R10), Y4, Y9
	VMULPD       Y5, Y9, Y9
	VADDPD       Y9, Y2, Y2
	VMULPD       96(R10), Y4, Y10
	VMULPD       Y5, Y10, Y10
	VADDPD       Y10, Y3, Y3
	ADDQ         R9, R10
	INCQ         R11
	JMP          bwd16row

bwd16store:
	VDIVPD  Y7, Y0, Y0
	VDIVPD  Y7, Y1, Y1
	VDIVPD  Y7, Y2, Y2
	VDIVPD  Y7, Y3, Y3
	VMOVUPD Y0, (DI)(BX*8)
	VMOVUPD Y1, 32(DI)(BX*8)
	VMOVUPD Y2, 64(DI)(BX*8)
	VMOVUPD Y3, 96(DI)(BX*8)
	MOVQ    AX, BX
	JMP     bwd16

bwd4:
	LEAQ 4(BX), AX
	CMPQ AX, CX
	JGT  bwd1
	VXORPD Y0, Y0, Y0
	LEAQ (DX)(BX*8), R10
	XORQ R11, R11

bwd4row:
	CMPQ         R11, CX
	JEQ          bwd4store
	VBROADCASTSD (R8)(R11*8), Y4
	VBROADCASTSD (SI)(R11*8), Y5
	VMULPD       (R10), Y4, Y6
	VMULPD       Y5, Y6, Y6
	VADDPD       Y6, Y0, Y0
	ADDQ         R9, R10
	INCQ         R11
	JMP          bwd4row

bwd4store:
	VDIVPD  Y7, Y0, Y0
	VMOVUPD Y0, (DI)(BX*8)
	MOVQ    AX, BX
	JMP     bwd4

bwd1:
	CMPQ BX, CX
	JEQ  bwdret
	VXORPD X0, X0, X0
	LEAQ (DX)(BX*8), R10
	XORQ R11, R11

bwd1row:
	CMPQ   R11, CX
	JEQ    bwd1store
	VMOVSD (R8)(R11*8), X4
	VMULSD (R10), X4, X6
	VMULSD (SI)(R11*8), X6, X6
	VADDSD X6, X0, X0
	ADDQ   R9, R10
	INCQ   R11
	JMP    bwd1row

bwd1store:
	VDIVSD X7, X0, X0
	VMOVSD X0, (DI)(BX*8)
	INCQ   BX
	JMP    bwd1

bwdret:
	VZEROUPPER
	RET

// func edgeStepAVX2(dst, aPrev, trans, emit, beta []float64, invC float64)
TEXT ·edgeStepAVX2(SB), NOSPLIT, $0-128
	MOVQ         dst_base+0(FP), DI
	MOVQ         aPrev_base+24(FP), SI
	MOVQ         aPrev_len+32(FP), CX
	MOVQ         trans_base+48(FP), DX
	MOVQ         emit_base+72(FP), R8
	MOVQ         beta_base+96(FP), R12
	VBROADCASTSD invC+120(FP), Y7
	VXORPD       X6, X6, X6
	MOVQ         CX, R9
	SHLQ         $3, R9
	XORQ         R11, R11

edgerow:
	CMPQ     R11, CX
	JEQ      edgeret
	VMOVSD   (SI)(R11*8), X4
	VUCOMISD X6, X4
	JPS      edgeadd
	JEQ      edgenext

edgeadd:
	VBROADCASTSD X4, Y4
	XORQ         BX, BX

edge8:
	LEAQ    8(BX), AX
	CMPQ    AX, CX
	JGT     edge4
	VMULPD  (DX)(BX*8), Y4, Y0
	VMULPD  32(DX)(BX*8), Y4, Y1
	VMULPD  (R8)(BX*8), Y0, Y0
	VMULPD  32(R8)(BX*8), Y1, Y1
	VMULPD  (R12)(BX*8), Y0, Y0
	VMULPD  32(R12)(BX*8), Y1, Y1
	VMULPD  Y7, Y0, Y0
	VMULPD  Y7, Y1, Y1
	VADDPD  (DI)(BX*8), Y0, Y0
	VADDPD  32(DI)(BX*8), Y1, Y1
	VMOVUPD Y0, (DI)(BX*8)
	VMOVUPD Y1, 32(DI)(BX*8)
	MOVQ    AX, BX
	JMP     edge8

edge4:
	LEAQ    4(BX), AX
	CMPQ    AX, CX
	JGT     edge1
	VMULPD  (DX)(BX*8), Y4, Y0
	VMULPD  (R8)(BX*8), Y0, Y0
	VMULPD  (R12)(BX*8), Y0, Y0
	VMULPD  Y7, Y0, Y0
	VADDPD  (DI)(BX*8), Y0, Y0
	VMOVUPD Y0, (DI)(BX*8)
	MOVQ    AX, BX

edge1:
	CMPQ   BX, CX
	JEQ    edgenext
	VMULSD (DX)(BX*8), X4, X0
	VMULSD (R8)(BX*8), X0, X0
	VMULSD (R12)(BX*8), X0, X0
	VMULSD X7, X0, X0
	VADDSD (DI)(BX*8), X0, X0
	VMOVSD X0, (DI)(BX*8)
	INCQ   BX
	JMP    edge1

edgenext:
	ADDQ R9, DX
	ADDQ R9, DI
	INCQ R11
	JMP  edgerow

edgeret:
	VZEROUPPER
	RET

// func addRowsAVX2(dst, table []float64, rows []int)
TEXT ·addRowsAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ table_base+24(FP), DX
	MOVQ rows_base+48(FP), SI
	MOVQ rows_len+56(FP), R12
	MOVQ CX, R9
	SHLQ $3, R9
	XORQ BX, BX

add16:
	LEAQ    16(BX), AX
	CMPQ    AX, CX
	JGT     add4
	VMOVUPD (DI)(BX*8), Y0
	VMOVUPD 32(DI)(BX*8), Y1
	VMOVUPD 64(DI)(BX*8), Y2
	VMOVUPD 96(DI)(BX*8), Y3
	LEAQ    (DX)(BX*8), R13
	XORQ    R11, R11

add16row:
	CMPQ   R11, R12
	JEQ    add16store
	MOVQ   (SI)(R11*8), R10
	IMULQ  R9, R10
	ADDQ   R13, R10
	VADDPD (R10), Y0, Y0
	VADDPD 32(R10), Y1, Y1
	VADDPD 64(R10), Y2, Y2
	VADDPD 96(R10), Y3, Y3
	INCQ   R11
	JMP    add16row

add16store:
	VMOVUPD Y0, (DI)(BX*8)
	VMOVUPD Y1, 32(DI)(BX*8)
	VMOVUPD Y2, 64(DI)(BX*8)
	VMOVUPD Y3, 96(DI)(BX*8)
	MOVQ    AX, BX
	JMP     add16

add4:
	LEAQ    4(BX), AX
	CMPQ    AX, CX
	JGT     add1
	VMOVUPD (DI)(BX*8), Y0
	LEAQ    (DX)(BX*8), R13
	XORQ    R11, R11

add4row:
	CMPQ   R11, R12
	JEQ    add4store
	MOVQ   (SI)(R11*8), R10
	IMULQ  R9, R10
	ADDQ   R13, R10
	VADDPD (R10), Y0, Y0
	INCQ   R11
	JMP    add4row

add4store:
	VMOVUPD Y0, (DI)(BX*8)
	MOVQ    AX, BX
	JMP     add4

add1:
	CMPQ   BX, CX
	JEQ    addret
	VMOVSD (DI)(BX*8), X0
	LEAQ   (DX)(BX*8), R13
	XORQ   R11, R11

add1row:
	CMPQ   R11, R12
	JEQ    add1store
	MOVQ   (SI)(R11*8), R10
	IMULQ  R9, R10
	ADDQ   R13, R10
	VADDSD (R10), X0, X0
	INCQ   R11
	JMP    add1row

add1store:
	VMOVSD X0, (DI)(BX*8)
	INCQ   BX
	JMP    add1

addret:
	VZEROUPPER
	RET

// func addMarginalRowsAVX2(table, marg []float64, rows []int)
//
// A lane whose marginal equals zero keeps its old value: VCMPPD marks it
// and VBLENDVPD selects the old element over the sum.
TEXT ·addMarginalRowsAVX2(SB), NOSPLIT, $0-72
	MOVQ   table_base+0(FP), DI
	MOVQ   marg_base+24(FP), SI
	MOVQ   marg_len+32(FP), CX
	MOVQ   rows_base+48(FP), DX
	MOVQ   rows_len+56(FP), R12
	MOVQ   CX, R9
	SHLQ   $3, R9
	VXORPD Y7, Y7, Y7
	XORQ   R11, R11

margrow:
	CMPQ  R11, R12
	JEQ   margret
	MOVQ  (DX)(R11*8), R10
	IMULQ R9, R10
	ADDQ  DI, R10
	XORQ  BX, BX

marg4:
	LEAQ      4(BX), AX
	CMPQ      AX, CX
	JGT       marg1
	VMOVUPD   (SI)(BX*8), Y0
	VCMPPD    $0, Y7, Y0, Y1
	VMOVUPD   (R10)(BX*8), Y2
	VADDPD    Y0, Y2, Y3
	VBLENDVPD Y1, Y2, Y3, Y3
	VMOVUPD   Y3, (R10)(BX*8)
	MOVQ      AX, BX
	JMP       marg4

marg1:
	CMPQ     BX, CX
	JEQ      margnext
	VMOVSD   (SI)(BX*8), X0
	VUCOMISD X7, X0
	JPS      marg1add
	JEQ      marg1next

marg1add:
	VADDSD (R10)(BX*8), X0, X0
	VMOVSD X0, (R10)(BX*8)

marg1next:
	INCQ BX
	JMP  marg1

margnext:
	INCQ R11
	JMP  margrow

margret:
	VZEROUPPER
	RET

// func axpyAVX2(a float64, x, y []float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSD a+0(FP), Y7
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	XORQ         BX, BX

axpy16:
	LEAQ    16(BX), AX
	CMPQ    AX, CX
	JGT     axpy4
	VMULPD  (SI)(BX*8), Y7, Y0
	VMULPD  32(SI)(BX*8), Y7, Y1
	VMULPD  64(SI)(BX*8), Y7, Y2
	VMULPD  96(SI)(BX*8), Y7, Y3
	VADDPD  (DI)(BX*8), Y0, Y0
	VADDPD  32(DI)(BX*8), Y1, Y1
	VADDPD  64(DI)(BX*8), Y2, Y2
	VADDPD  96(DI)(BX*8), Y3, Y3
	VMOVUPD Y0, (DI)(BX*8)
	VMOVUPD Y1, 32(DI)(BX*8)
	VMOVUPD Y2, 64(DI)(BX*8)
	VMOVUPD Y3, 96(DI)(BX*8)
	MOVQ    AX, BX
	JMP     axpy16

axpy4:
	LEAQ    4(BX), AX
	CMPQ    AX, CX
	JGT     axpy1
	VMULPD  (SI)(BX*8), Y7, Y0
	VADDPD  (DI)(BX*8), Y0, Y0
	VMOVUPD Y0, (DI)(BX*8)
	MOVQ    AX, BX
	JMP     axpy4

axpy1:
	CMPQ   BX, CX
	JEQ    axpyret
	VMULSD (SI)(BX*8), X7, X0
	VADDSD (DI)(BX*8), X0, X0
	VMOVSD X0, (DI)(BX*8)
	INCQ   BX
	JMP    axpy1

axpyret:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
