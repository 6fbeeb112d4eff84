// Package asm implements a textual assembler and disassembler for the
// SASS-like ISA in package isa.
//
// The accepted syntax, one instruction per line:
//
//	; full-line comment (also # and //)
//	start:                      ; label
//	    MVI   R1, 0x10          ; immediate move
//	    IADD  R3, R1, R2        ; register format
//	    ISETI R5, R4, 100, LT, P1
//	    @P1  BRA start          ; guarded branch to a label
//	    @!P0 IADDI R1, R1, 1    ; inverted guard
//	    GLD  R2, [R1+16]        ; memory operand
//	    GST  [R1+16], R2
//	    S2R  R0, SR_TID
//	    EXIT
//
// Branch-like instructions (SSY, BRA, CAL) take a label or a numeric
// displacement; labels are resolved to relative displacements in
// instruction units.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"gpustl/internal/isa"
)

// Error describes an assembly failure with its source line number.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

var specialRegs = map[string]int32{
	"SR_TID":   isa.SRTid,
	"SR_NTID":  isa.SRNTid,
	"SR_CTAID": isa.SRCTAid,
	"SR_WARP":  isa.SRWarp,
	"SR_LANE":  isa.SRLane,
}

var specialRegNames = map[int32]string{
	isa.SRTid:   "SR_TID",
	isa.SRNTid:  "SR_NTID",
	isa.SRCTAid: "SR_CTAID",
	isa.SRWarp:  "SR_WARP",
	isa.SRLane:  "SR_LANE",
}

// form is an opcode's operand syntax. forms maps every opcode to one;
// the parser, Format and Canonical all dispatch on it, so which fields
// an instruction's text carries is defined in this one table.
type form uint8

const (
	formInvalid form = iota // not an opcode: the mnemonic alone
	formNone                // NOP
	formRR                  // MOV Rd, Ra
	formRI                  // MVI Rd, imm
	formS2R                 // S2R Rd, SR_TID
	formRRR                 // IADD Rd, Ra, Rb
	formRRI                 // IADDI Rd, Ra, imm
	formSet                 // ISET Rd, Ra, Rb, COND, Pd
	formSetI                // ISETI Rd, Ra, imm, COND, Pd
	formLoad                // GLD Rd, [Ra+imm]
	formStore               // GST [Ra+imm], Rb
	formBranch              // BRA imm (or a label)
)

var forms = [isa.NumOpcodes]form{
	isa.OpNOP: formNone, isa.OpRET: formNone, isa.OpEXIT: formNone, isa.OpBAR: formNone,

	isa.OpMOV: formRR, isa.OpNOT: formRR, isa.OpINEG: formRR, isa.OpF2I: formRR, isa.OpI2F: formRR,
	isa.OpRCP: formRR, isa.OpRSQ: formRR, isa.OpSIN: formRR, isa.OpCOS: formRR,
	isa.OpLG2: formRR, isa.OpEX2: formRR,

	isa.OpMVI: formRI,
	isa.OpS2R: formS2R,

	isa.OpIADD: formRRR, isa.OpISUB: formRRR, isa.OpIMUL: formRRR, isa.OpIMAD: formRRR,
	isa.OpIMIN: formRRR, isa.OpIMAX: formRRR, isa.OpAND: formRRR, isa.OpOR: formRRR,
	isa.OpXOR: formRRR, isa.OpSHL: formRRR, isa.OpSHR: formRRR,
	isa.OpFADD: formRRR, isa.OpFMUL: formRRR, isa.OpFFMA: formRRR, isa.OpFMIN: formRRR, isa.OpFMAX: formRRR,

	isa.OpIADDI: formRRI, isa.OpISUBI: formRRI, isa.OpIMULI: formRRI, isa.OpANDI: formRRI,
	isa.OpORI: formRRI, isa.OpXORI: formRRI, isa.OpSHLI: formRRI, isa.OpSHRI: formRRI,

	isa.OpISET: formSet, isa.OpFSET: formSet,
	isa.OpISETI: formSetI,

	isa.OpGLD: formLoad, isa.OpSLD: formLoad, isa.OpLDC: formLoad,
	isa.OpGST: formStore, isa.OpSST: formStore,

	isa.OpSSY: formBranch, isa.OpBRA: formBranch, isa.OpCAL: formBranch,
}

func formOf(op isa.Opcode) form {
	if int(op) < len(forms) {
		return forms[op]
	}
	return formInvalid
}

// Operand fields a form's text carries.
const (
	fieldRd = 1 << iota
	fieldRa
	fieldRb
	fieldImm
	fieldCondPd // comparison condition and predicate destination
)

var formFields = [...]uint8{
	formRR:     fieldRd | fieldRa,
	formRI:     fieldRd | fieldImm,
	formS2R:    fieldRd | fieldImm,
	formRRR:    fieldRd | fieldRa | fieldRb,
	formRRI:    fieldRd | fieldRa | fieldImm,
	formSet:    fieldRd | fieldRa | fieldRb | fieldCondPd,
	formSetI:   fieldRd | fieldRa | fieldImm | fieldCondPd,
	formLoad:   fieldRd | fieldRa | fieldImm,
	formStore:  fieldRa | fieldRb | fieldImm,
	formBranch: fieldImm,
}

// formArity is each form's operand count.
var formArity = [...]int{
	formRR: 2, formRI: 2, formS2R: 2, formRRR: 3, formRRI: 3,
	formSet: 5, formSetI: 5, formLoad: 2, formStore: 2, formBranch: 1,
}

// Assemble parses the program text and returns the instruction sequence.
func Assemble(src string) ([]isa.Instruction, error) {
	lines := strings.Split(src, "\n")

	type pending struct {
		srcLine int
		pc      int
		label   string
	}
	var (
		prog    []isa.Instruction
		labels  = make(map[string]int)
		fixups  []pending
		lineNum int
	)
	for _, raw := range lines {
		lineNum++
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Labels, possibly followed by an instruction on the same line.
		for {
			colon := strings.Index(line, ":")
			if colon < 0 {
				break
			}
			name := strings.TrimSpace(line[:colon])
			if !isIdent(name) {
				return nil, errf(lineNum, "invalid label %q", name)
			}
			if _, dup := labels[name]; dup {
				return nil, errf(lineNum, "duplicate label %q", name)
			}
			labels[name] = len(prog)
			line = strings.TrimSpace(line[colon+1:])
			if line == "" {
				break
			}
		}
		if line == "" {
			continue
		}
		in, labelRef, err := parseInstruction(line, lineNum)
		if err != nil {
			return nil, err
		}
		if labelRef != "" {
			fixups = append(fixups, pending{lineNum, len(prog), labelRef})
		}
		prog = append(prog, in)
	}
	for _, f := range fixups {
		target, ok := labels[f.label]
		if !ok {
			return nil, errf(f.srcLine, "undefined label %q", f.label)
		}
		// Displacement is relative to the next instruction.
		prog[f.pc].Imm = int32(target - (f.pc + 1))
	}
	return prog, nil
}

func stripComment(line string) string {
	for _, marker := range []string{";", "#", "//"} {
		if i := strings.Index(line, marker); i >= 0 {
			line = line[:i]
		}
	}
	return line
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// parseInstruction parses one instruction line. It returns the instruction
// and, for label-referencing branches, the label name to fix up.
func parseInstruction(line string, lineNum int) (isa.Instruction, string, error) {
	in := isa.Instruction{Pg: isa.PredAlways, PSense: true}

	// Optional @P guard prefix.
	if strings.HasPrefix(line, "@") {
		sp := strings.IndexAny(line, " \t")
		if sp < 0 {
			return in, "", errf(lineNum, "guard with no instruction")
		}
		guard := line[1:sp]
		line = strings.TrimSpace(line[sp:])
		sense := true
		if strings.HasPrefix(guard, "!") {
			sense = false
			guard = guard[1:]
		}
		p, err := parsePred(guard)
		if err != nil {
			return in, "", errf(lineNum, "%v", err)
		}
		in.Pg, in.PSense = p, sense
	}

	sp := strings.IndexAny(line, " \t")
	mnem := line
	rest := ""
	if sp >= 0 {
		mnem = line[:sp]
		rest = strings.TrimSpace(line[sp:])
	}
	op, ok := isa.OpcodeByName(strings.ToUpper(mnem))
	if !ok {
		return in, "", errf(lineNum, "unknown mnemonic %q", mnem)
	}
	in.Op = op

	ops := splitOperands(rest)
	lbl, err := parseOperands(&in, ops, lineNum)
	return in, lbl, err
}

func splitOperands(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func parseReg(s string) (uint8, error) {
	if len(s) < 2 || (s[0] != 'R' && s[0] != 'r') {
		return 0, fmt.Errorf("expected register, got %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumGPR {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return uint8(n), nil
}

func parsePred(s string) (uint8, error) {
	if len(s) != 2 || (s[0] != 'P' && s[0] != 'p') {
		return 0, fmt.Errorf("expected predicate register, got %q", s)
	}
	n := int(s[1] - '0')
	if n < 0 || n >= isa.NumPred {
		return 0, fmt.Errorf("bad predicate %q", s)
	}
	return uint8(n), nil
}

func parseImm(s string) (int32, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	if v > 0xffffffff || v < -0x80000000 {
		return 0, fmt.Errorf("immediate %q out of 32-bit range", s)
	}
	return int32(uint32(v)), nil
}

// parseMem parses "[Rn+off]" or "[Rn]" memory operands.
func parseMem(s string) (uint8, int32, error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, fmt.Errorf("expected memory operand [Rn+off], got %q", s)
	}
	body := s[1 : len(s)-1]
	reg := body
	off := ""
	if i := strings.IndexAny(body, "+-"); i > 0 {
		reg, off = body[:i], body[i:]
	}
	r, err := parseReg(strings.TrimSpace(reg))
	if err != nil {
		return 0, 0, err
	}
	var imm int32
	if off != "" {
		imm, err = parseImm(strings.TrimSpace(strings.TrimPrefix(off, "+")))
		if err != nil {
			return 0, 0, err
		}
	}
	return r, imm, nil
}

func parseCond(s string) (isa.Cond, error) {
	for c := isa.Cond(0); int(c) < isa.NumConds; c++ {
		if strings.EqualFold(c.String(), s) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("bad condition %q", s)
}

func parseOperands(in *isa.Instruction, ops []string, line int) (string, error) {
	f := formOf(in.Op)
	if f == formInvalid {
		return "", errf(line, "unhandled opcode %v", in.Op)
	}
	if n := formArity[f]; len(ops) != n {
		return "", errf(line, "%v expects %d operands, got %d", in.Op, n, len(ops))
	}
	var err error
	switch f {
	case formRR:
		if in.Rd, err = parseReg(ops[0]); err == nil {
			in.Ra, err = parseReg(ops[1])
		}
	case formRI:
		if in.Rd, err = parseReg(ops[0]); err == nil {
			in.Imm, err = parseImm(ops[1])
		}
	case formS2R:
		if in.Rd, err = parseReg(ops[0]); err == nil {
			sr, ok := specialRegs[strings.ToUpper(ops[1])]
			if !ok {
				return "", errf(line, "unknown special register %q", ops[1])
			}
			in.Imm = sr
		}
	case formRRR, formSet:
		if in.Rd, err = parseReg(ops[0]); err == nil {
			if in.Ra, err = parseReg(ops[1]); err == nil {
				in.Rb, err = parseReg(ops[2])
			}
		}
	case formRRI, formSetI:
		if in.Rd, err = parseReg(ops[0]); err == nil {
			if in.Ra, err = parseReg(ops[1]); err == nil {
				in.Imm, err = parseImm(ops[2])
			}
		}
	case formLoad:
		if in.Rd, err = parseReg(ops[0]); err == nil {
			in.Ra, in.Imm, err = parseMem(ops[1])
		}
	case formStore:
		if in.Ra, in.Imm, err = parseMem(ops[0]); err == nil {
			in.Rb, err = parseReg(ops[1])
		}
	case formBranch:
		if isIdent(ops[0]) {
			return ops[0], nil // label fixup
		}
		in.Imm, err = parseImm(ops[0])
	}
	if err == nil && (f == formSet || f == formSetI) {
		// ... , COND, Pd: the binary format has one Pd bit, so the
		// predicate destination folds to P0/P1.
		if in.Cond, err = parseCond(ops[3]); err == nil {
			var p uint8
			p, err = parsePred(ops[4])
			in.Pd = p & 1
		}
	}
	if err != nil {
		return "", errf(line, "%v", err)
	}
	return "", nil
}

// Disassemble renders the program as assembly text, one instruction per
// line, with branch displacements shown numerically.
func Disassemble(prog []isa.Instruction) string {
	var b strings.Builder
	for _, in := range prog {
		b.WriteString(Format(in))
		b.WriteByte('\n')
	}
	return b.String()
}

// Format renders a single instruction in the assembler's input syntax.
// It prints only the operand fields of the opcode's form (formFields);
// Canonical zeroes the rest.
func Format(in isa.Instruction) string {
	var b strings.Builder
	if in.Pg != isa.PredAlways {
		if in.PSense {
			fmt.Fprintf(&b, "@P%d ", in.Pg)
		} else {
			fmt.Fprintf(&b, "@!P%d ", in.Pg)
		}
	}
	b.WriteString(in.Op.String())
	switch formOf(in.Op) {
	case formRR:
		fmt.Fprintf(&b, " R%d, R%d", in.Rd, in.Ra)
	case formRI:
		fmt.Fprintf(&b, " R%d, %d", in.Rd, in.Imm)
	case formS2R:
		name, ok := specialRegNames[in.Imm]
		if !ok {
			name = fmt.Sprintf("SR_%d", in.Imm)
		}
		fmt.Fprintf(&b, " R%d, %s", in.Rd, name)
	case formRRR:
		fmt.Fprintf(&b, " R%d, R%d, R%d", in.Rd, in.Ra, in.Rb)
	case formRRI:
		fmt.Fprintf(&b, " R%d, R%d, %d", in.Rd, in.Ra, in.Imm)
	case formSet:
		fmt.Fprintf(&b, " R%d, R%d, R%d, %v, P%d", in.Rd, in.Ra, in.Rb, in.Cond, in.Pd)
	case formSetI:
		fmt.Fprintf(&b, " R%d, R%d, %d, %v, P%d", in.Rd, in.Ra, in.Imm, in.Cond, in.Pd)
	case formLoad:
		fmt.Fprintf(&b, " R%d, [R%d+%d]", in.Rd, in.Ra, in.Imm)
	case formStore:
		fmt.Fprintf(&b, " [R%d+%d], R%d", in.Ra, in.Imm, in.Rb)
	case formBranch:
		fmt.Fprintf(&b, " %d", in.Imm)
	}
	return b.String()
}

// Canonical returns the instruction its Format text denotes: the
// operand fields the opcode's form does not print are zeroed, the
// predicate destination is folded to P0/P1 as the assembler folds it,
// and an unguarded instruction has PSense set, as the assembler leaves
// it. Whenever Assemble(Format(in)) succeeds it returns Canonical(in),
// so two instructions with the same text have the same canonical form.
func Canonical(in isa.Instruction) isa.Instruction {
	out := isa.Instruction{Op: in.Op, Pg: in.Pg, PSense: in.PSense || in.Pg == isa.PredAlways}
	fields := formFields[formOf(in.Op)]
	if fields&fieldRd != 0 {
		out.Rd = in.Rd
	}
	if fields&fieldRa != 0 {
		out.Ra = in.Ra
	}
	if fields&fieldRb != 0 {
		out.Rb = in.Rb
	}
	if fields&fieldImm != 0 {
		out.Imm = in.Imm
	}
	if fields&fieldCondPd != 0 {
		out.Cond = in.Cond
		out.Pd = in.Pd & 1
	}
	return out
}
