#include "textflag.h"

// The kernels use VEX-encoded instructions only: a legacy SSE instruction
// while the upper YMM halves are dirty costs hundreds of cycles on some
// CPUs, more than a short row's whole pass.

DATA one<>+0(SB)/8, $1.0
GLOBL one<>(SB), RODATA|NOPTR, $8

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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func pairAVX2(xi, yi float64, p, xs, ys, ax, ay, rx, ry []float64, s *laneSums)
//
// Lane l of Y3..Y7 is s[0..4][l]. Per 4 pairs, in the Go twin's order:
// dx = xi - xs, dy = yi - ys, k = 1 / ((1 + dx·dx) + dy·dy), pk = p·k,
// kk = k·k, the forces pk·dx, pk·dy, kk·dx, kk·dy added to the lanes and
// subtracted from ax, ay, rx, ry, and k added to lane sum 4. No FMA.
TEXT ·pairAVX2(SB), NOSPLIT, $0-192
	MOVQ p_base+16(FP), SI
	MOVQ p_len+24(FP), CX
	MOVQ xs_base+40(FP), R8
	MOVQ ys_base+64(FP), R9
	MOVQ ax_base+88(FP), R10
	MOVQ ay_base+112(FP), R11
	MOVQ rx_base+136(FP), R12
	MOVQ ry_base+160(FP), R13
	MOVQ s+184(FP), DI
	ANDQ $~3, CX
	VBROADCASTSD xi+0(FP), Y0
	VBROADCASTSD yi+8(FP), Y1
	VBROADCASTSD one<>(SB), Y2
	VMOVUPD 0(DI), Y3
	VMOVUPD 32(DI), Y4
	VMOVUPD 64(DI), Y5
	VMOVUPD 96(DI), Y6
	VMOVUPD 128(DI), Y7
	XORQ AX, AX

pairloop:
	CMPQ AX, CX
	JGE  pairdone
	VMOVUPD (R8)(AX*8), Y8
	VSUBPD  Y8, Y0, Y8             // dx
	VMOVUPD (R9)(AX*8), Y9
	VSUBPD  Y9, Y1, Y9             // dy
	VMULPD  Y8, Y8, Y10
	VADDPD  Y10, Y2, Y10           // 1 + dx·dx
	VMULPD  Y9, Y9, Y11
	VADDPD  Y11, Y10, Y10          // + dy·dy
	VDIVPD  Y10, Y2, Y10           // k
	VADDPD  Y10, Y7, Y7
	VMULPD  (SI)(AX*8), Y10, Y11   // pk
	VMULPD  Y10, Y10, Y10          // kk

	VMULPD  Y9, Y11, Y15           // fay = pk·dy
	VMULPD  Y8, Y11, Y11           // fax = pk·dx
	VMULPD  Y9, Y10, Y9            // fry = kk·dy
	VMULPD  Y8, Y10, Y8            // frx = kk·dx
	VADDPD  Y11, Y3, Y3
	VADDPD  Y15, Y4, Y4
	VADDPD  Y8, Y5, Y5
	VADDPD  Y9, Y6, Y6

	// All four partials are loaded before any is stored: the arrays may
	// lie a multiple of 4 KiB apart, and a load behind a store to the same
	// address bits would wait for it.
	VMOVUPD (R10)(AX*8), Y12
	VMOVUPD (R11)(AX*8), Y13
	VMOVUPD (R12)(AX*8), Y14
	VMOVUPD (R13)(AX*8), Y10
	VSUBPD  Y11, Y12, Y12
	VSUBPD  Y15, Y13, Y13
	VSUBPD  Y8, Y14, Y14
	VSUBPD  Y9, Y10, Y10
	VMOVUPD Y12, (R10)(AX*8)
	VMOVUPD Y13, (R11)(AX*8)
	VMOVUPD Y14, (R12)(AX*8)
	VMOVUPD Y10, (R13)(AX*8)

	ADDQ $4, AX
	JMP  pairloop

pairdone:
	VMOVUPD Y3, 0(DI)
	VMOVUPD Y4, 32(DI)
	VMOVUPD Y5, 64(DI)
	VMOVUPD Y6, 96(DI)
	VMOVUPD Y7, 128(DI)
	VZEROUPPER
	RET

// func dotAVX2(a, b []float64) (s0, s1, s2, s3 float64)
TEXT ·dotAVX2(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	ANDQ $~3, CX
	VXORPD Y0, Y0, Y0
	XORQ AX, AX

dotloop:
	CMPQ AX, CX
	JGE  dotdone
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  (DI)(AX*8), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ $4, AX
	JMP  dotloop

dotdone:
	VEXTRACTF128 $1, Y0, X1
	VMOVSD       X0, s0+48(FP)
	VMOVHPD      X0, s1+56(FP)
	VMOVSD       X1, s2+64(FP)
	VMOVHPD      X1, s3+72(FP)
	VZEROUPPER
	RET
