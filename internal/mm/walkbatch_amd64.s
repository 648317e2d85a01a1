#include "textflag.h"

// one is 1.0, the page of credit a walk's winner pays.
DATA one<>+0(SB)/8, $0x3ff0000000000000
GLOBL one<>(SB), RODATA|NOPTR, $8

// LANE settles lane j of all four walks once M (Y8) holds each walk's top
// credit and Y10 the mask of walks an earlier lane has already won: E is
// the walks whose lane-j credit equals M, the lane wins E AND NOT Y10,
// pays (win AND 1.0), and its count row gains 1 where it won (a true mask
// is -1 as an int64).
#define LANE(c, off) \
	VCMPPD  $0, Y8, c, Y9; \
	VANDNPD Y9, Y10, Y11;  \
	VORPD   Y9, Y10, Y10;  \
	VANDPD  Y14, Y11, Y12; \
	VSUBPD  Y12, c, c;     \
	VMOVDQU off(BX), Y13;  \
	VPSUBQ  Y11, Y13, Y13; \
	VMOVDQU Y13, off(BX)

// func stepsAVX2(credit *[8][4]float64, count *[8][4]int64, w *[8][4]float64, n int)
//
// Y0–Y7 hold lane j's credit in the four walks. Each page adds the
// weights, takes M as a VMAXPD tree over the eight lanes (values only, so
// the tree's order does not matter), and settles the lanes in ascending
// order, so the lowest lane equal to M wins, as stepsScalar's strict >
// scan decides.
TEXT ·stepsAVX2(SB), NOSPLIT, $0-32
	MOVQ credit+0(FP), AX
	MOVQ count+8(FP), BX
	MOVQ w+16(FP), CX
	MOVQ n+24(FP), DX
	TESTQ DX, DX
	JLE   done
	VMOVUPD 0(AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	VMOVUPD 128(AX), Y4
	VMOVUPD 160(AX), Y5
	VMOVUPD 192(AX), Y6
	VMOVUPD 224(AX), Y7
	VBROADCASTSD one<>(SB), Y14

loop:
	VADDPD 0(CX), Y0, Y0
	VADDPD 32(CX), Y1, Y1
	VADDPD 64(CX), Y2, Y2
	VADDPD 96(CX), Y3, Y3
	VADDPD 128(CX), Y4, Y4
	VADDPD 160(CX), Y5, Y5
	VADDPD 192(CX), Y6, Y6
	VADDPD 224(CX), Y7, Y7
	VMAXPD Y1, Y0, Y8
	VMAXPD Y3, Y2, Y9
	VMAXPD Y5, Y4, Y10
	VMAXPD Y7, Y6, Y11
	VMAXPD Y9, Y8, Y8
	VMAXPD Y11, Y10, Y10
	VMAXPD Y10, Y8, Y8

	// Lane 0 wins wherever it equals M.
	VCMPPD  $0, Y8, Y0, Y10
	VANDPD  Y14, Y10, Y12
	VSUBPD  Y12, Y0, Y0
	VMOVDQU 0(BX), Y13
	VPSUBQ  Y10, Y13, Y13
	VMOVDQU Y13, 0(BX)
	LANE(Y1, 32)
	LANE(Y2, 64)
	LANE(Y3, 96)
	LANE(Y4, 128)
	LANE(Y5, 160)
	LANE(Y6, 192)
	LANE(Y7, 224)

	DECQ DX
	JNZ  loop

	VMOVUPD Y0, 0(AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	VMOVUPD Y4, 128(AX)
	VMOVUPD Y5, 160(AX)
	VMOVUPD Y6, 192(AX)
	VMOVUPD Y7, 224(AX)
	VZEROUPPER

done:
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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
