package asm

import (
	"math/rand"
	"strings"
	"testing"

	"gpustl/internal/isa"
)

func mustAssemble(t *testing.T, src string) []isa.Instruction {
	t.Helper()
	prog, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return prog
}

func TestAssembleBasic(t *testing.T) {
	prog := mustAssemble(t, `
		; a tiny kernel
		MVI  R1, 5
		MVI  R2, 0x10
		IADD R3, R1, R2
		GST  [R3+4], R1
		EXIT
	`)
	if len(prog) != 5 {
		t.Fatalf("len = %d, want 5", len(prog))
	}
	if prog[0].Op != isa.OpMVI || prog[0].Rd != 1 || prog[0].Imm != 5 {
		t.Errorf("instr 0 = %+v", prog[0])
	}
	if prog[2].Op != isa.OpIADD || prog[2].Rd != 3 || prog[2].Ra != 1 || prog[2].Rb != 2 {
		t.Errorf("instr 2 = %+v", prog[2])
	}
	if prog[3].Op != isa.OpGST || prog[3].Ra != 3 || prog[3].Imm != 4 || prog[3].Rb != 1 {
		t.Errorf("instr 3 = %+v", prog[3])
	}
}

func TestAssembleLabels(t *testing.T) {
	prog := mustAssemble(t, `
	start:
		IADDI R1, R1, 1
		ISETI R2, R1, 10, LT, P0
		@P0 BRA start
		EXIT
	`)
	if prog[2].Op != isa.OpBRA {
		t.Fatalf("instr 2 op = %v", prog[2].Op)
	}
	// Branch at pc=2, target=0 → displacement relative to pc+1 is -3.
	if prog[2].Imm != -3 {
		t.Errorf("branch displacement = %d, want -3", prog[2].Imm)
	}
	if prog[2].Pg != 0 || !prog[2].PSense {
		t.Errorf("guard = P%d sense=%v", prog[2].Pg, prog[2].PSense)
	}
}

func TestAssembleForwardLabelAndNegGuard(t *testing.T) {
	prog := mustAssemble(t, `
		ISETI R2, R1, 0, EQ, P1
		@!P1 BRA done
		MVI R5, 1
	done:
		EXIT
	`)
	if prog[1].Imm != 1 { // from pc=1, target pc=3, rel to 2 → +1
		t.Errorf("forward displacement = %d, want 1", prog[1].Imm)
	}
	if prog[1].Pg != 1 || prog[1].PSense {
		t.Errorf("guard = P%d sense=%v, want !P1", prog[1].Pg, prog[1].PSense)
	}
}

func TestAssembleS2RAndSpecial(t *testing.T) {
	prog := mustAssemble(t, "S2R R0, SR_TID\nS2R R1, SR_CTAID\nBAR\nRET")
	if prog[0].Imm != isa.SRTid || prog[1].Imm != isa.SRCTAid {
		t.Errorf("special registers: %d %d", prog[0].Imm, prog[1].Imm)
	}
}

func TestAssembleISET(t *testing.T) {
	prog := mustAssemble(t, "ISET R1, R2, R3, GE, P1\nFSET R4, R5, R6, NE, P0")
	if prog[0].Cond != isa.CondGE || prog[0].Pd != 1 {
		t.Errorf("ISET parsed %+v", prog[0])
	}
	if prog[1].Cond != isa.CondNE || prog[1].Pd != 0 {
		t.Errorf("FSET parsed %+v", prog[1])
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"BOGUS R1, R2",
		"IADD R1, R2",             // wrong arity
		"MVI R99, 1",              // bad register
		"BRA nowhere",             // undefined label
		"x: x: EXIT",              // duplicate label (same line)
		"GLD R1, R2",              // missing brackets
		"ISETI R1, R2, 3, XX, P0", // bad cond
		"@P9 EXIT",                // bad guard
		"MVI R1, 0x1ffffffff",     // imm out of range
		"1bad: EXIT",              // invalid label
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}
}

func TestAssembleErrorHasLine(t *testing.T) {
	_, err := Assemble("NOP\nNOP\nBOGUS\n")
	aerr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T, want *Error", err)
	}
	if aerr.Line != 3 {
		t.Errorf("error line = %d, want 3", aerr.Line)
	}
	if !strings.Contains(aerr.Error(), "line 3") {
		t.Errorf("error text %q lacks line info", aerr.Error())
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	src := `
		MVI R1, 5
		MVI R2, -7
		IADD R3, R1, R2
		IMAD R4, R3, R1
		NOT R6, R3
		SHLI R7, R6, 3
		ISETI R8, R7, 64, GT, P1
		@P1 IADDI R9, R9, 1
		@!P0 MOV R10, R9
		S2R R0, SR_TID
		GLD R11, [R0+128]
		SST [R0+0], R11
		LDC R12, [R0+8]
		SIN R13, R12
		FFMA R14, R13, R12
		SSY 2
		BRA 1
		BAR
		EXIT
	`
	prog := mustAssemble(t, src)
	text := Disassemble(prog)
	prog2 := mustAssemble(t, text)
	if len(prog) != len(prog2) {
		t.Fatalf("round trip length %d != %d", len(prog2), len(prog))
	}
	for i := range prog {
		if prog[i] != prog2[i] {
			t.Errorf("instr %d: %+v != %+v\ntext: %s", i, prog[i], prog2[i], Format(prog[i]))
		}
	}
}

// TestFormatAssembleProperty checks Assemble(Format(x)) == x for random
// well-formed instructions of every non-branch opcode.
func TestFormatAssembleProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3000; trial++ {
		in := isa.Instruction{
			Op:     isa.Opcode(r.Intn(isa.NumOpcodes)),
			Rd:     uint8(r.Intn(isa.NumGPR)),
			Ra:     uint8(r.Intn(isa.NumGPR)),
			Rb:     uint8(r.Intn(isa.NumGPR)),
			Imm:    int32(r.Uint32()),
			Cond:   isa.Cond(r.Intn(isa.NumConds)),
			Pd:     uint8(r.Intn(2)),
			Pg:     isa.PredAlways,
			PSense: true,
		}
		if r.Intn(2) == 0 {
			in.Pg = uint8(r.Intn(isa.NumPred))
		}
		if in.Pg != isa.PredAlways {
			in.PSense = r.Intn(2) == 1
		}
		// Normalize fields the textual format does not carry for this op.
		canon := canonical(in)
		// The form table agrees with the ISA's operand semantics.
		if c := Canonical(canon); c != canon {
			t.Fatalf("Canonical(%+v) = %+v", canon, c)
		}
		text := Format(canon)
		prog, err := Assemble(text)
		if err != nil {
			t.Fatalf("Assemble(Format(%+v)) = %q: %v", canon, text, err)
		}
		if len(prog) != 1 || prog[0] != canon {
			t.Fatalf("property failed:\n in: %+v\ntxt: %s\nout: %+v", canon, text, prog[0])
		}
	}
}

// canonical zeroes instruction fields that the opcode's textual syntax does
// not express, so Format/Assemble round trips are comparable.
func canonical(in isa.Instruction) isa.Instruction {
	out := isa.Instruction{Op: in.Op, Pg: in.Pg, PSense: in.PSense}
	op := in.Op
	if isa.WritesRd(op) {
		out.Rd = in.Rd
	}
	if isa.ReadsRa(op) || op == isa.OpGST || op == isa.OpSST {
		out.Ra = in.Ra
	}
	if isa.ReadsRb(op) {
		out.Rb = in.Rb
	}
	switch {
	case op == isa.OpS2R:
		out.Imm = int32(uint32(in.Imm) % 5)
	case op == isa.OpSSY || op == isa.OpBRA || op == isa.OpCAL:
		out.Imm = in.Imm
	case isa.HasImm(op):
		out.Imm = in.Imm
	}
	if isa.SetsPred(op) {
		out.Cond = in.Cond
		out.Pd = in.Pd
	}
	return out
}

func TestStripCommentVariants(t *testing.T) {
	prog := mustAssemble(t, "NOP ; c1\nNOP # c2\nNOP // c3\n")
	if len(prog) != 3 {
		t.Fatalf("len = %d, want 3", len(prog))
	}
}

func TestLabelOnInstructionLine(t *testing.T) {
	prog := mustAssemble(t, "loop: IADDI R1, R1, 1\nBRA loop")
	if prog[1].Imm != -2 {
		t.Errorf("displacement = %d, want -2", prog[1].Imm)
	}
}

func TestNegativeMemOffset(t *testing.T) {
	prog := mustAssemble(t, "GLD R1, [R2-8]")
	if prog[0].Imm != -8 {
		t.Errorf("offset = %d, want -8", prog[0].Imm)
	}
}

func TestEveryOpcodeHasForm(t *testing.T) {
	for op := isa.Opcode(0); int(op) < isa.NumOpcodes; op++ {
		if formOf(op) == formInvalid {
			t.Errorf("%v has no operand form", op)
		}
	}
}

// TestCanonicalDropsUnprintedFields: operands the text does not carry
// do not survive canonicalization, and printed ones do.
func TestCanonicalDropsUnprintedFields(t *testing.T) {
	mov := isa.Instruction{Op: isa.OpMOV, Rd: 6, Ra: 5, Rb: 6, Imm: 9, Pg: isa.PredAlways}
	want := isa.Instruction{Op: isa.OpMOV, Rd: 6, Ra: 5, Pg: isa.PredAlways, PSense: true}
	if got := Canonical(mov); got != want {
		t.Fatalf("Canonical(%+v) = %+v, want %+v", mov, got, want)
	}
	set := isa.Instruction{Op: isa.OpISET, Rd: 1, Ra: 2, Rb: 3, Cond: isa.CondLT, Pd: 3, Pg: 2}
	if got := Canonical(set); got.Pd != 1 || got.Cond != isa.CondLT || got.Rb != 3 || got.PSense {
		t.Fatalf("Canonical(%+v) = %+v", set, got)
	}
}
