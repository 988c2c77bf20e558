#include "textflag.h"

// The store kernel behind streamCopy. Each iteration loads a cache line of
// src (VMOVDQU: src keeps the payload's alignment) and writes it to dst with
// two 32-byte non-temporal stores (VMOVNTDQ, which needs dst 32-byte aligned;
// streamCopy hands over whole lines). The stores gather in write-combining
// buffers and go to memory as whole lines, so the line's old contents are
// never read. They are weakly ordered; storeFence orders them.
//
// As in classify_amd64.s, only VEX-encoded instructions touch an X or Y
// register and a function that touches a Y register ends with VZEROUPPER
// (TestClassifierAsmIsVEX).

// func streamCopyAVX2(dst, src []byte)
TEXT ·streamCopyAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	SHRQ $6, CX // whole lines
	TESTQ CX, CX
	JZ done

loop:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVNTDQ Y0, (DI)
	VMOVNTDQ Y1, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ loop

done:
	VZEROUPPER
	RET

// func storeFence()
TEXT ·storeFence(SB), NOSPLIT, $0-0
	SFENCE
	RET
