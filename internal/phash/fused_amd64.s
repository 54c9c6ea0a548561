#include "textflag.h"

// Rec.601 weights for VPMADDWD over the words (r, g, b, a) of a lane.
DATA luma<>+0(SB)/8, $0x00000072024b012b
DATA luma<>+8(SB)/8, $0x00000072024b012b
DATA luma<>+16(SB)/8, $0x00000072024b012b
DATA luma<>+24(SB)/8, $0x00000072024b012b
GLOBL luma<>(SB), RODATA|NOPTR, $32

// ceil(2^28/1000), one per 64-bit lane.
DATA div1000<>+0(SB)/8, $268436
DATA div1000<>+8(SB)/8, $268436
DATA div1000<>+16(SB)/8, $268436
DATA div1000<>+24(SB)/8, $268436
GLOBL div1000<>(SB), RODATA|NOPTR, $32

// DRAW advances the four row chains in Y9 by one xorshift step and
// leaves in the low word of each lane of x the lane's byte sum, which is
// at most 2040 and, since 256 = 1 (mod 5), congruent to the state mod 5.
#define DRAW(x) \
	VPSLLQ  $13, Y9, Y0; \
	VPXOR   Y0, Y9, Y9; \
	VPSRLQ  $7, Y9, Y0; \
	VPXOR   Y0, Y9, Y9; \
	VPSLLQ  $17, Y9, Y0; \
	VPXOR   Y0, Y9, Y9; \
	VPSADBW Y15, Y9, x

// func mod5Rows4(pix *byte, stride, n int, states *[4]uint64, sums *[4]int64)
TEXT ·mod5Rows4(SB), NOSPLIT, $0-40
	MOVQ pix+0(FP), SI
	MOVQ stride+8(FP), DX
	MOVQ n+16(FP), CX
	MOVQ states+24(FP), DI
	MOVQ sums+32(FP), R8

	// X10 = {0, stride, 2*stride, 3*stride}: the gather's row offsets.
	VPXOR   X10, X10, X10
	MOVQ    DX, AX
	VPINSRD $1, AX, X10, X10
	ADDQ    DX, AX
	VPINSRD $2, AX, X10, X10
	ADDQ    DX, AX
	VPINSRD $3, AX, X10, X10

	VPXOR        Y15, Y15, Y15
	MOVL         $13108, AX
	VMOVD        AX, X14
	VPBROADCASTW X14, Y14
	MOVL         $5, AX
	VMOVD        AX, X13
	VPBROADCASTW X13, Y13
	MOVL         $2, AX
	VMOVD        AX, X12
	VPBROADCASTW X12, Y12
	MOVL         $257, AX
	VMOVD        AX, X11
	VPBROADCASTW X11, Y11

	VMOVDQU (DI), Y9
	VPXOR   Y8, Y8, Y8
	TESTQ   CX, CX
	JZ      done

loop:
	// One pixel of each row, its bytes widened to the words (r, g, b, a)
	// of the row's lane.
	VPCMPEQD   X5, X5, X5
	VPGATHERDD X5, (SI)(X10*1), X7
	VPMOVZXBW  X7, Y7

	// The three draws' byte sums go to words 0-2 of each lane, where one
	// multiply pair takes them mod 5: for x <= 2040 the low 16 bits of
	// x*13108 (13108 = ceil(2^16/5)), times 5, shifted down by 16, is
	// exactly x%5.
	DRAW(Y1)
	DRAW(Y2)
	DRAW(Y3)
	VPSLLQ   $16, Y2, Y2
	VPSLLQ   $32, Y3, Y3
	VPOR     Y2, Y1, Y1
	VPOR     Y3, Y1, Y1
	VPMULLW  Y14, Y1, Y1
	VPMULHUW Y13, Y1, Y1

	// clamp(v+d-2) + 2 = min(max(v+d, 2), 257) per channel word; the
	// bias adds exactly 2000 to the weighted sum 299r + 587g + 114b, so
	// the quotient by 1000 is the luminance plus 2.
	VPADDW   Y1, Y7, Y7
	VPMAXSW  Y12, Y7, Y7
	VPMINSW  Y11, Y7, Y7
	VPMADDWD luma<>(SB), Y7, Y7
	VPSRLQ   $32, Y7, Y6
	VPADDD   Y6, Y7, Y7

	// x/1000 = (x*268436)>>28, exact for x <= 257000.
	VPMULUDQ div1000<>(SB), Y7, Y7
	VPSRLQ   $28, Y7, Y7
	VPADDQ   Y7, Y8, Y8

	ADDQ $4, SI
	DECQ CX
	JNZ  loop

done:
	// Take back the +2 bias of the n luminances.
	MOVQ         n+16(FP), AX
	SHLQ         $1, AX
	VMOVQ        AX, X0
	VPBROADCASTQ X0, Y0
	VPSUBQ       Y0, Y8, Y8
	VMOVDQU      Y9, (DI)
	VMOVDQU      Y8, (R8)
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
