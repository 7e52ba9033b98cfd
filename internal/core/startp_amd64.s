#include "textflag.h"

// func diagAVX2(dst, prev, tE, sE, tS, rN []float64, w float64)
//
// dst[x] = max(((prev[x]+w)+tE[x])+rN[x], ((prev[x+1]+w)+tS[x])+sE[x]) for
// x < len(dst). Each add keeps diagGo's grouping; only the operands of one
// add are swapped, which is exact.
TEXT ·diagAVX2(SB), NOSPLIT, $0-152
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ prev_base+24(FP), SI
	MOVQ tE_base+48(FP), R9
	MOVQ sE_base+72(FP), R10
	MOVQ tS_base+96(FP), R11
	MOVQ rN_base+120(FP), R12
	VBROADCASTSD w+144(FP), Y6
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX
	JZ   tail

loop4:
	VADDPD  (SI)(AX*8), Y6, Y0  // west: prev[x] + w
	VADDPD  (R9)(AX*8), Y0, Y0  // + tE
	VADDPD  (R12)(AX*8), Y0, Y0 // + rN
	VADDPD  8(SI)(AX*8), Y6, Y1 // north: prev[x+1] + w
	VADDPD  (R11)(AX*8), Y1, Y1 // + tS
	VADDPD  (R10)(AX*8), Y1, Y1 // + sE
	VMAXPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      loop4

tail:
	CMPQ   AX, CX
	JAE    done
	VMOVSD (SI)(AX*8), X0
	VADDSD X6, X0, X0
	VADDSD (R9)(AX*8), X0, X0
	VADDSD (R12)(AX*8), X0, X0
	VMOVSD 8(SI)(AX*8), X1
	VADDSD X6, X1, X1
	VADDSD (R11)(AX*8), X1, X1
	VADDSD (R10)(AX*8), X1, X1
	VMAXSD X1, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
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
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
