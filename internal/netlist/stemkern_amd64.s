//go:build amd64 && !purego

#include "textflag.h"

// Gate kinds (netlist.go): the kinds of cone and plan ops, KBuf
// through KMux.
#define K_BUF 3
#define K_NOT 4
#define K_AND 5
#define K_OR 6
#define K_XOR 7
#define K_NAND 8
#define K_NOR 9
#define K_XNOR 10
#define K_MUX 11

// Register use in both kernels:
//   DI  buffer base    SI  code cursor    R8  code end
//   DX  destination row
//   CX  ops left in the current run
//   AX, BX, R9  operand byte offsets (row index*128)
//   Y15 all ones (the inverting XOR of NOT, NAND, NOR and XNOR)

// DISPATCH reads the run header at SI and jumps to its kind's op loop
// with CX holding the op count. It jumps back to run on an empty run,
// and to done at the end of the code or on a kind it has no loop for.
#define DISPATCH \
	CMPQ  SI, R8;         \
	JAE   done;           \
	MOVL  (SI), AX;       \
	ADDQ  $4, SI;         \
	MOVL  AX, CX;         \
	ANDL  $0xffff, CX;    \
	SHRL  $16, AX;        \
	TESTL CX, CX;         \
	JZ    run;            \
	CMPL  AX, $K_AND;     \
	JEQ   and;            \
	CMPL  AX, $K_OR;      \
	JEQ   or;             \
	CMPL  AX, $K_XOR;     \
	JEQ   xor;            \
	CMPL  AX, $K_NAND;    \
	JEQ   nand;           \
	CMPL  AX, $K_NOR;     \
	JEQ   nor;            \
	CMPL  AX, $K_XNOR;    \
	JEQ   xnor;           \
	CMPL  AX, $K_MUX;     \
	JEQ   mux;            \
	CMPL  AX, $K_BUF;     \
	JEQ   buf;            \
	CMPL  AX, $K_NOT;     \
	JEQ   not;            \
	JMP   done

// LOAD1(off) loads the 16-word row of the operand at off(SI) into
// Y0-Y3.
#define LOAD1(off) \
	MOVL    off(SI), AX;       \
	SHLQ    $7, AX;            \
	VMOVDQU (DI)(AX*1), Y0;    \
	VMOVDQU 32(DI)(AX*1), Y1;  \
	VMOVDQU 64(DI)(AX*1), Y2;  \
	VMOVDQU 96(DI)(AX*1), Y3

// LOAD2(op, off) loads the row of the operand at off(SI) and folds the
// row of the one after it in with op.
#define LOAD2(op, off) \
	MOVL    off(SI), AX;          \
	MOVL    off+4(SI), BX;        \
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

// MUX(off) computes a&c | b&^a into Y0-Y3 from the three operands at
// off(SI): a the select row, b the In[1] row (BX), c the In[2] row
// (R9).
#define MUX(off) \
	MOVL    off+4(SI), BX;          \
	MOVL    off+8(SI), R9;          \
	SHLQ    $7, BX;                 \
	SHLQ    $7, R9;                 \
	LOAD1(off);                     \
	VPANDN  (DI)(BX*1), Y0, Y4;     \
	VPANDN  32(DI)(BX*1), Y1, Y5;   \
	VPANDN  64(DI)(BX*1), Y2, Y6;   \
	VPANDN  96(DI)(BX*1), Y3, Y7;   \
	VPAND   (DI)(R9*1), Y0, Y0;     \
	VPAND   32(DI)(R9*1), Y1, Y1;   \
	VPAND   64(DI)(R9*1), Y2, Y2;   \
	VPAND   96(DI)(R9*1), Y3, Y3;   \
	VPOR    Y4, Y0, Y0;             \
	VPOR    Y5, Y1, Y1;             \
	VPOR    Y6, Y2, Y2;             \
	VPOR    Y7, Y3, Y3

#define INVERT \
	VPXOR Y15, Y0, Y0; \
	VPXOR Y15, Y1, Y1; \
	VPXOR Y15, Y2, Y2; \
	VPXOR Y15, Y3, Y3

// STORE writes Y0-Y3 to the destination row at DX.
#define STORE \
	VMOVDQU Y0, (DX);   \
	VMOVDQU Y1, 32(DX); \
	VMOVDQU Y2, 64(DX); \
	VMOVDQU Y3, 96(DX)

// CONE_NEXT(arity) steps the stem kernel past a cone op: its arity
// operand words, and its implicit destination to the next faulty row.
#define CONE_NEXT(arity) \
	ADDQ $(4*arity), SI; \
	ADDQ $128, DX

// PLAN_DST points DX at the row of the plan op's destination net, the
// op's first word.
#define PLAN_DST \
	MOVL (SI), DX; \
	SHLQ $7, DX;   \
	ADDQ DI, DX

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
	DISPATCH

done:
	VZEROUPPER
	RET

buf:
	LOAD1(0)
	STORE
	CONE_NEXT(1)
	DECL CX
	JNZ  buf
	JMP  run

not:
	LOAD1(0)
	INVERT
	STORE
	CONE_NEXT(1)
	DECL CX
	JNZ  not
	JMP  run

and:
	LOAD2(VPAND, 0)
	STORE
	CONE_NEXT(2)
	DECL CX
	JNZ  and
	JMP  run

or:
	LOAD2(VPOR, 0)
	STORE
	CONE_NEXT(2)
	DECL CX
	JNZ  or
	JMP  run

xor:
	LOAD2(VPXOR, 0)
	STORE
	CONE_NEXT(2)
	DECL CX
	JNZ  xor
	JMP  run

nand:
	LOAD2(VPAND, 0)
	INVERT
	STORE
	CONE_NEXT(2)
	DECL CX
	JNZ  nand
	JMP  run

nor:
	LOAD2(VPOR, 0)
	INVERT
	STORE
	CONE_NEXT(2)
	DECL CX
	JNZ  nor
	JMP  run

xnor:
	LOAD2(VPXOR, 0)
	INVERT
	STORE
	CONE_NEXT(2)
	DECL CX
	JNZ  xnor
	JMP  run

mux:
	MUX(0)
	STORE
	CONE_NEXT(3)
	DECL CX
	JNZ  mux
	JMP  run

// func evalPlanCodeAVX2(good []uint64, code []int32)
TEXT ·evalPlanCodeAVX2(SB), NOSPLIT, $0-48
	MOVQ     good_base+0(FP), DI
	MOVQ     code_base+24(FP), SI
	MOVQ     code_len+32(FP), R8
	LEAQ     (SI)(R8*4), R8
	VPCMPEQQ Y15, Y15, Y15

run:
	DISPATCH

done:
	VZEROUPPER
	RET

buf:
	PLAN_DST
	LOAD1(4)
	STORE
	ADDQ $8, SI
	DECL CX
	JNZ  buf
	JMP  run

not:
	PLAN_DST
	LOAD1(4)
	INVERT
	STORE
	ADDQ $8, SI
	DECL CX
	JNZ  not
	JMP  run

and:
	PLAN_DST
	LOAD2(VPAND, 4)
	STORE
	ADDQ $12, SI
	DECL CX
	JNZ  and
	JMP  run

or:
	PLAN_DST
	LOAD2(VPOR, 4)
	STORE
	ADDQ $12, SI
	DECL CX
	JNZ  or
	JMP  run

xor:
	PLAN_DST
	LOAD2(VPXOR, 4)
	STORE
	ADDQ $12, SI
	DECL CX
	JNZ  xor
	JMP  run

nand:
	PLAN_DST
	LOAD2(VPAND, 4)
	INVERT
	STORE
	ADDQ $12, SI
	DECL CX
	JNZ  nand
	JMP  run

nor:
	PLAN_DST
	LOAD2(VPOR, 4)
	INVERT
	STORE
	ADDQ $12, SI
	DECL CX
	JNZ  nor
	JMP  run

xnor:
	PLAN_DST
	LOAD2(VPXOR, 4)
	INVERT
	STORE
	ADDQ $12, SI
	DECL CX
	JNZ  xnor
	JMP  run

mux:
	PLAN_DST
	MUX(4)
	STORE
	ADDQ $16, SI
	DECL CX
	JNZ  mux
	JMP  run

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
