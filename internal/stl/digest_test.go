package stl_test

import (
	"bytes"
	"context"
	"testing"

	"gpustl/internal/asm"
	"gpustl/internal/atpg"
	"gpustl/internal/circuits"
	"gpustl/internal/isa"
	"gpustl/internal/ptpgen"
	"gpustl/internal/stl"
)

// generatorPTPs returns one small PTP from every ptpgen generator, the
// ATPG-converted ones from a short random-phase run.
func generatorPTPs(t *testing.T) []*stl.PTP {
	t.Helper()
	ps := []*stl.PTP{
		ptpgen.IMM(12, 1),
		ptpgen.MEM(12, 2),
		ptpgen.CNTRL(3, 3),
		ptpgen.DIVG(3, 2, 4),
		ptpgen.RAND(12, 5),
		ptpgen.FPRAND(12, 6),
	}
	for _, g := range []struct {
		kind    circuits.ModuleKind
		convert func([]circuits.Pattern, int64) (*stl.PTP, int)
	}{
		{circuits.ModuleSP, ptpgen.TPGEN},
		{circuits.ModuleSFU, ptpgen.SFUIMM},
	} {
		m, err := circuits.Build(g.kind, 1)
		if err != nil {
			t.Fatal(err)
		}
		opt := atpg.DefaultOptions(7)
		opt.SampleFaults = 300
		opt.RandomBlocks = 16
		opt.UsePodem = false
		res, err := atpg.Generate(context.Background(), m, opt)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := g.convert(res.Patterns, 7)
		ps = append(ps, p)
	}
	return ps
}

func digest(t *testing.T, p *stl.PTP) string {
	t.Helper()
	d, err := stl.Digest(p)
	if err != nil {
		t.Fatalf("Digest(%s): %v", p.Name, err)
	}
	return d
}

// TestDigestIsFunctionOfSerializedForm: a PTP and its WritePTP/ReadPTP
// round trip have the same digest, for every generator — including
// generators that leave operands the assembly text drops.
func TestDigestIsFunctionOfSerializedForm(t *testing.T) {
	for _, p := range generatorPTPs(t) {
		var buf bytes.Buffer
		if err := stl.WritePTP(&buf, p); err != nil {
			t.Fatal(err)
		}
		q, err := stl.ReadPTP(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := digest(t, p), digest(t, q); a != b {
			t.Errorf("%s: digest %.12s, after a WritePTP/ReadPTP round trip %.12s", p.Name, a, b)
		}
	}
}

// mutation edits one serialized field of q; it reports false when q has
// no such field to edit (a PTP without data words, say).
type mutation struct {
	name string
	edit func(q *stl.PTP, delta int) bool
}

// sbField edits one SB field of the first SB where the edit keeps the
// PTP valid.
func sbField(field func(*stl.SB) *int) func(q *stl.PTP, delta int) bool {
	return func(q *stl.PTP, delta int) bool {
		for i := range q.SBs {
			r := q.Clone()
			*field(&r.SBs[i]) += delta
			if r.Validate() == nil {
				*field(&q.SBs[i]) += delta
				return true
			}
		}
		return false
	}
}

// operand edits the first instruction whose canonical form the edit
// changes (printed) or, with printed false, leaves unchanged.
func operand(printed bool, edit func(*isa.Instruction)) func(q *stl.PTP, delta int) bool {
	return func(q *stl.PTP, _ int) bool {
		for i, in := range q.Prog {
			e := in
			edit(&e)
			if e != in && (asm.Canonical(e) != asm.Canonical(in)) == printed {
				q.Prog[i] = e
				return true
			}
		}
		return false
	}
}

var printedEdits = []mutation{
	{"name", func(q *stl.PTP, _ int) bool { q.Name += "x"; return true }},
	{"target", func(q *stl.PTP, _ int) bool {
		q.Target = (q.Target + 1) % circuits.ModuleKind(circuits.NumModuleKinds)
		return true
	}},
	{"kernel.blocks", func(q *stl.PTP, _ int) bool { q.Kernel.Blocks++; return true }},
	{"kernel.threads", func(q *stl.PTP, _ int) bool { q.Kernel.ThreadsPerBlock += 32; return true }},
	{"data.base", func(q *stl.PTP, _ int) bool { q.Data.Base += 4; return true }},
	{"data.word", func(q *stl.PTP, _ int) bool {
		if len(q.Data.Words) == 0 {
			return false
		}
		q.Data.Words[len(q.Data.Words)/2] ^= 1
		return true
	}},
	{"sb.start", sbField(func(s *stl.SB) *int { return &s.Start })},
	{"sb.end", sbField(func(s *stl.SB) *int { return &s.End })},
	{"sb.dataOff", sbField(func(s *stl.SB) *int { return &s.DataOff })},
	{"sb.dataLen", sbField(func(s *stl.SB) *int { return &s.DataLen })},
	{"sb.addrInstr", sbField(func(s *stl.SB) *int { return &s.AddrInstr })},
	{"protected", func(q *stl.PTP, _ int) bool {
		q.Protected = append(q.Protected, stl.Region{Start: 0, End: 1})
		return true
	}},
	{"instr.rd", operand(true, func(in *isa.Instruction) { in.Rd ^= 1 })},
	{"instr.imm", operand(true, func(in *isa.Instruction) { in.Imm++ })},
	{"instr.guard", operand(true, func(in *isa.Instruction) { in.Pg = 0 })},
}

var unprintedEdits = []mutation{
	{"rb-on-mov", operand(false, func(in *isa.Instruction) {
		if in.Op == isa.OpMOV || in.Op == isa.OpNOT {
			in.Rb ^= 1
		}
	})},
	{"psense-unguarded", operand(false, func(in *isa.Instruction) {
		if in.Pg == isa.PredAlways {
			in.PSense = !in.PSense
		}
	})},
	{"imm-on-rrr", operand(false, func(in *isa.Instruction) {
		if in.Op == isa.OpIADD || in.Op == isa.OpXOR {
			in.Imm++
		}
	})},
}

// TestDigestCoversSerializedFields: editing any field WritePTP writes
// changes the digest, and editing an operand the assembly text drops
// does not. Every edit must apply to at least one generator's PTP.
func TestDigestCoversSerializedFields(t *testing.T) {
	applied := map[string]int{}
	for _, p := range generatorPTPs(t) {
		base := digest(t, p)
		for _, printed := range []bool{true, false} {
			edits := printedEdits
			if !printed {
				edits = unprintedEdits
			}
			for _, m := range edits {
				q := p.Clone()
				if !m.edit(q, 1) && !m.edit(q, -1) {
					continue
				}
				if err := q.Validate(); err != nil {
					t.Fatalf("%s/%s: edit left an invalid PTP: %v", p.Name, m.name, err)
				}
				applied[m.name]++
				if got := digest(t, q); (got != base) != printed {
					t.Errorf("%s: editing %s (printed %v) moved the digest from %.12s to %.12s",
						p.Name, m.name, printed, base, got)
				}
			}
		}
	}
	for _, m := range append(append([]mutation(nil), printedEdits...), unprintedEdits...) {
		if applied[m.name] == 0 {
			t.Errorf("edit %s applied to no generator's PTP", m.name)
		}
	}
}

func TestDigestRejectsInvalid(t *testing.T) {
	p := ptpgen.IMM(4, 1)
	p.Prog = nil
	if _, err := stl.Digest(p); err == nil {
		t.Fatal("Digest accepted an empty PTP")
	}
}
