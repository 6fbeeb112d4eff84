//go:build amd64 && !purego

#include "textflag.h"

// Gate kinds (netlist.go): the cone kinds KBuf through KMux.
#define K_BUF 3
#define K_NOT 4
#define K_AND 5
#define K_OR 6
#define K_XOR 7
#define K_NAND 8
#define K_NOR 9
#define K_XNOR 10
#define K_MUX 11

// Register use in evalStemCodeAVX2:
//   DI  gf base        SI  code cursor    R8  code end
//   DX  destination row (advances 128 bytes per op)
//   CX  ops left in the current run
//   AX, BX, R9  operand byte offsets (slot*128)
//   Y15 all ones (the inverting XOR of NOT, NAND, NOR and XNOR)

// LOAD1 loads the 16-word row at byte offset AX into Y0-Y3.
#define LOAD1 \
	MOVL    (SI), AX;          \
	SHLQ    $7, AX;            \
	VMOVDQU (DI)(AX*1), Y0;    \
	VMOVDQU 32(DI)(AX*1), Y1;  \
	VMOVDQU 64(DI)(AX*1), Y2;  \
	VMOVDQU 96(DI)(AX*1), Y3

// LOAD2(op) loads the first operand's row and folds the second one in
// with op.
#define LOAD2(op) \
	MOVL    (SI), AX;             \
	MOVL    4(SI), BX;            \
	SHLQ    $7, AX;               \
	SHLQ    $7, BX;               \
	VMOVDQU (DI)(AX*1), Y0;       \
	VMOVDQU 32(DI)(AX*1), Y1;     \
	VMOVDQU 64(DI)(AX*1), Y2;     \
	VMOVDQU 96(DI)(AX*1), Y3;     \
	op      (DI)(BX*1), Y0, Y0;   \
	op      32(DI)(BX*1), Y1, Y1; \
	op      64(DI)(BX*1), Y2, Y2; \
	op      96(DI)(BX*1), Y3, Y3

#define INVERT \
	VPXOR Y15, Y0, Y0; \
	VPXOR Y15, Y1, Y1; \
	VPXOR Y15, Y2, Y2; \
	VPXOR Y15, Y3, Y3

// STORE writes Y0-Y3 to the destination row and steps to the next op.
#define STORE(arity) \
	VMOVDQU Y0, (DX);   \
	VMOVDQU Y1, 32(DX); \
	VMOVDQU Y2, 64(DX); \
	VMOVDQU Y3, 96(DX); \
	ADDQ    $(4*arity), SI; \
	ADDQ    $128, DX

// func evalStemCodeAVX2(gf []uint64, code []int32, dst int)
TEXT ·evalStemCodeAVX2(SB), NOSPLIT, $0-56
	MOVQ     gf_base+0(FP), DI
	MOVQ     code_base+24(FP), SI
	MOVQ     code_len+32(FP), R8
	LEAQ     (SI)(R8*4), R8
	MOVQ     dst+48(FP), DX
	LEAQ     (DI)(DX*8), DX
	VPCMPEQQ Y15, Y15, Y15

run:
	CMPQ  SI, R8
	JAE   done
	MOVL  (SI), AX
	ADDQ  $4, SI
	MOVL  AX, CX
	ANDL  $0xffff, CX
	SHRL  $16, AX
	TESTL CX, CX
	JZ    run
	CMPL  AX, $K_AND
	JEQ   and
	CMPL  AX, $K_OR
	JEQ   or
	CMPL  AX, $K_XOR
	JEQ   xor
	CMPL  AX, $K_NAND
	JEQ   nand
	CMPL  AX, $K_NOR
	JEQ   nor
	CMPL  AX, $K_XNOR
	JEQ   xnor
	CMPL  AX, $K_MUX
	JEQ   mux
	CMPL  AX, $K_BUF
	JEQ   buf
	CMPL  AX, $K_NOT
	JEQ   not

done:
	VZEROUPPER
	RET

buf:
	LOAD1
	STORE(1)
	DECL CX
	JNZ  buf
	JMP  run

not:
	LOAD1
	INVERT
	STORE(1)
	DECL CX
	JNZ  not
	JMP  run

and:
	LOAD2(VPAND)
	STORE(2)
	DECL CX
	JNZ  and
	JMP  run

or:
	LOAD2(VPOR)
	STORE(2)
	DECL CX
	JNZ  or
	JMP  run

xor:
	LOAD2(VPXOR)
	STORE(2)
	DECL CX
	JNZ  xor
	JMP  run

nand:
	LOAD2(VPAND)
	INVERT
	STORE(2)
	DECL CX
	JNZ  nand
	JMP  run

nor:
	LOAD2(VPOR)
	INVERT
	STORE(2)
	DECL CX
	JNZ  nor
	JMP  run

xnor:
	LOAD2(VPXOR)
	INVERT
	STORE(2)
	DECL CX
	JNZ  xnor
	JMP  run

// mux: d = a&c | b&^a, with a the select row (Y0-Y3), b the In[1] row
// (BX) and c the In[2] row (R9).
mux:
	MOVL    4(SI), BX
	MOVL    8(SI), R9
	SHLQ    $7, BX
	SHLQ    $7, R9
	LOAD1
	VPANDN  (DI)(BX*1), Y0, Y4
	VPANDN  32(DI)(BX*1), Y1, Y5
	VPANDN  64(DI)(BX*1), Y2, Y6
	VPANDN  96(DI)(BX*1), Y3, Y7
	VPAND   (DI)(R9*1), Y0, Y0
	VPAND   32(DI)(R9*1), Y1, Y1
	VPAND   64(DI)(R9*1), Y2, Y2
	VPAND   96(DI)(R9*1), Y3, Y3
	VPOR    Y4, Y0, Y0
	VPOR    Y5, Y1, Y1
	VPOR    Y6, Y2, Y2
	VPOR    Y7, Y3, Y3
	STORE(3)
	DECL    CX
	JNZ     mux
	JMP     run

// func cpuAVX2() bool
TEXT ·cpuAVX2(SB), NOSPLIT, $0-1
	XORL  AX, AX
	XORL  CX, CX
	CPUID
	CMPL  AX, $7
	JB    no
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $(1<<27|1<<28), CX // OSXSAVE, AVX
	CMPL  CX, $(1<<27|1<<28)
	JNE   no
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX             // XCR0: SSE and YMM state enabled by the OS
	CMPL  AX, $6
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	ANDL  $(1<<5), BX        // AVX2
	JZ    no
	MOVB  $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
