package asm

import (
	"encoding/binary"
	"testing"

	"gpustl/internal/isa"
)

// FuzzAssemble checks the assembler never panics on arbitrary text, and
// that whatever it accepts survives a disassemble/assemble round trip.
func FuzzAssemble(f *testing.F) {
	f.Add("MVI R1, 5\nIADD R2, R1, R1\nGST [R2+0], R1\nEXIT")
	f.Add("loop: IADDI R1, R1, 1\n@P0 BRA loop")
	f.Add("x: y: EXIT")
	f.Add("@!P3 SIN R9, R8 ; comment")
	f.Add("S2R R0, SR_TID # c")
	f.Add("ISETI R1, R2, -3, GE, P1")
	f.Add("BRA 0\nSSY -1\nCAL 2\nRET")
	f.Add("\x00\xff broken")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Assemble(src)
		if err != nil {
			return
		}
		text := Disassemble(prog)
		prog2, err := Assemble(text)
		if err != nil {
			t.Fatalf("disassembly does not reassemble: %v\n%s", err, text)
		}
		if len(prog2) != len(prog) {
			t.Fatalf("round trip length %d != %d", len(prog2), len(prog))
		}
	})
}

// FuzzCanonical checks Canonical against the assembler: whenever an
// instruction's text reassembles, the result is its canonical form, and
// canonical forms are fixed points. Each field is drawn from a range
// one past its valid values, so both accepted and rejected text occur.
func FuzzCanonical(f *testing.F) {
	f.Add([]byte{byte(isa.OpMOV), 6, 5, 6, 0, 0, 0, 0, 0, 0, isa.PredAlways, 0})
	f.Add([]byte{byte(isa.OpISET), 1, 2, 3, 7, 0, 0, 0, byte(isa.CondGE), 3, 1, 0})
	f.Add([]byte{byte(isa.OpGST), 9, 1, 2, 0xfc, 0xff, 0xff, 0xff, 2, 1, 2, 1})
	f.Add([]byte{byte(isa.OpS2R), 0, 0, 0, isa.SRLane, 0, 0, 0, 0, 0, isa.PredAlways, 1})
	f.Add([]byte{byte(isa.OpBRA), 0, 0, 0, 0xfe, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var b [12]byte
		copy(b[:], data)
		in := isa.Instruction{
			Op:     isa.Opcode(int(b[0]) % (isa.NumOpcodes + 1)),
			Rd:     b[1] % (isa.NumGPR + 1),
			Ra:     b[2] % (isa.NumGPR + 1),
			Rb:     b[3] % (isa.NumGPR + 1),
			Imm:    int32(binary.LittleEndian.Uint32(b[4:])),
			Cond:   isa.Cond(int(b[8]) % (isa.NumConds + 1)),
			Pd:     b[9] % (isa.NumPred + 1),
			Pg:     b[10] % (isa.PredAlways + 2),
			PSense: b[11]&1 == 1,
		}
		c := Canonical(in)
		if Canonical(c) != c {
			t.Fatalf("Canonical is not idempotent: %+v -> %+v -> %+v", in, c, Canonical(c))
		}
		prog, err := Assemble(Format(in))
		if err != nil {
			return
		}
		in2 := prog[0]
		if c != in2 {
			t.Fatalf("Canonical(%+v) = %+v, but %q assembles to %+v", in, c, Format(in), in2)
		}
		if Canonical(in2) != in2 {
			t.Fatalf("assembled %+v is not canonical: %+v", in2, Canonical(in2))
		}
	})
}
