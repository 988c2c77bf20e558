#include "textflag.h"

// The vector classifiers behind classify4 and classify8. An element v misses
// the range iff v-lo > span unsigned; AVX2 compares only signed, so both
// sides are flipped at the sign bit first, which maps the unsigned order onto
// the signed one. The compare sets a lane's bits where it misses, the mask
// move gathers one bit a lane, and its complement is the block's hits byte.
//
// Only VEX-encoded instructions touch an X or Y register here (VMOVD and
// VMOVQ, never MOVL AX, X0 or MOVQ AX, X0): a legacy-SSE instruction after a
// 256-bit one pays an SSE/AVX transition. Measured on the classifier, a
// legacy MOVD made a call cost 325-369 ns, against 4 ns with VMOVD.
// TestClassifierAsmIsVEX holds this file to it, and every function that
// touches a Y register ends with VZEROUPPER.
//
// Each loop touches the line 512 bytes ahead (PREFETCHT0). Without it the
// classifier waits on its loads: pushdown_scan's cpu_us_per_op was 5.8 %
// lower with it than without, in ten of ten alternating pairs (seeds 1-10,
// 2-core Xeon VM).

// func classify4AVX2(hits *[runElems / 8]uint8, src []byte, lo, span uint64)
TEXT ·classify4AVX2(SB), NOSPLIT, $0-48
	MOVQ hits+0(FP), DI
	MOVQ src_base+8(FP), SI
	MOVQ src_len+16(FP), CX
	MOVQ lo+32(FP), AX
	MOVQ span+40(FP), BX
	SHRQ $5, CX // whole blocks of eight uint32
	MOVL $0x80000000, DX
	XORL DX, BX
	VMOVD AX, X0
	VPBROADCASTD X0, Y0 // lo
	VMOVD BX, X1
	VPBROADCASTD X1, Y1 // span ^ sign
	VMOVD DX, X2
	VPBROADCASTD X2, Y2 // sign
	TESTQ CX, CX
	JZ done4

loop4:
	PREFETCHT0 512(SI)
	VMOVDQU (SI), Y3
	VPSUBD Y0, Y3, Y3
	VPXOR Y2, Y3, Y3
	VPCMPGTD Y1, Y3, Y3 // lanes that miss
	VMOVMSKPS Y3, AX
	NOTL AX
	MOVB AX, (DI)
	ADDQ $32, SI
	INCQ DI
	DECQ CX
	JNZ loop4

done4:
	VZEROUPPER
	RET

// func classify8AVX2(hits *[runElems / 8]uint8, src []byte, lo, span uint64)
TEXT ·classify8AVX2(SB), NOSPLIT, $0-48
	MOVQ hits+0(FP), DI
	MOVQ src_base+8(FP), SI
	MOVQ src_len+16(FP), CX
	MOVQ lo+32(FP), AX
	MOVQ span+40(FP), BX
	SHRQ $6, CX // whole blocks of eight uint64
	MOVQ $0x8000000000000000, DX
	XORQ DX, BX
	VMOVQ AX, X0
	VPBROADCASTQ X0, Y0 // lo
	VMOVQ BX, X1
	VPBROADCASTQ X1, Y1 // span ^ sign
	VMOVQ DX, X2
	VPBROADCASTQ X2, Y2 // sign
	TESTQ CX, CX
	JZ done8

loop8:
	PREFETCHT0 512(SI)
	VMOVDQU (SI), Y3
	VMOVDQU 32(SI), Y4
	VPSUBQ Y0, Y3, Y3
	VPSUBQ Y0, Y4, Y4
	VPXOR Y2, Y3, Y3
	VPXOR Y2, Y4, Y4
	VPCMPGTQ Y1, Y3, Y3 // lanes 0-3 that miss
	VPCMPGTQ Y1, Y4, Y4 // lanes 4-7 that miss
	VMOVMSKPD Y3, AX
	VMOVMSKPD Y4, BX
	SHLL $4, BX
	ORL BX, AX
	NOTL AX
	MOVB AX, (DI)
	ADDQ $64, SI
	INCQ DI
	DECQ CX
	JNZ loop8

done8:
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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
