package circuits

import (
	"math/rand"
	"testing"

	"gpustl/internal/isa"
	"gpustl/internal/netlist"
)

func buildSP(t testing.TB) *netlist.Netlist {
	t.Helper()
	nl, err := BuildSP()
	if err != nil {
		t.Fatalf("BuildSP: %v", err)
	}
	return nl
}

func buildDU(t testing.TB) *netlist.Netlist {
	t.Helper()
	nl, err := BuildDU()
	if err != nil {
		t.Fatalf("BuildDU: %v", err)
	}
	return nl
}

func buildSFU(t testing.TB) *netlist.Netlist {
	t.Helper()
	nl, err := BuildSFU()
	if err != nil {
		t.Fatalf("BuildSFU: %v", err)
	}
	return nl
}

func TestModuleSizes(t *testing.T) {
	// The netlists must be in the same size ballpark as the paper's
	// synthesized units (DU ~2k gates, SP ~4k/lane, SFU ~10k/lane).
	du, sp, sfu := buildDU(t), buildSP(t), buildSFU(t)
	if n := du.NumGates(); n < 500 || n > 10000 {
		t.Errorf("DU gates = %d, want 500..10000", n)
	}
	if n := sp.NumGates(); n < 2000 || n > 20000 {
		t.Errorf("SP gates = %d, want 2000..20000", n)
	}
	if n := sfu.NumGates(); n < 5000 || n > 50000 {
		t.Errorf("SFU gates = %d, want 5000..50000", n)
	}
	t.Logf("gates: DU=%d SP=%d SFU=%d", du.NumGates(), sp.NumGates(), sfu.NumGates())
	if len(du.Inputs) != duInputs {
		t.Errorf("DU inputs = %d, want %d", len(du.Inputs), duInputs)
	}
	if len(sp.Inputs) != spInputs {
		t.Errorf("SP inputs = %d, want %d", len(sp.Inputs), spInputs)
	}
	if len(sfu.Inputs) != sfuInputs {
		t.Errorf("SFU inputs = %d, want %d", len(sfu.Inputs), sfuInputs)
	}
}

// mustEval builds a combinational evaluator, panicking on failure (test
// netlists are combinational by construction).
func mustEval(nl *netlist.Netlist) *netlist.Evaluator {
	ev, err := netlist.NewEvaluator(nl)
	if err != nil {
		panic(err)
	}
	return ev
}

// evalOnce evaluates one pattern, panicking on failure.
func evalOnce(ev *netlist.Evaluator, pattern []bool) []bool {
	out, err := ev.EvalOnce(pattern)
	if err != nil {
		panic(err)
	}
	return out
}

// evalSP runs the SP netlist on one pattern and returns (result, pred).
func evalSP(ev *netlist.Evaluator, fn SPFn, cond isa.Cond, a, b, c uint32) (uint32, bool) {
	p := EncodeSPPattern(fn, cond, a, b, c)
	out := evalOnce(ev, p.Bools(spInputs))
	var r uint32
	for i := 0; i < 32; i++ {
		if out[i] {
			r |= 1 << uint(i)
		}
	}
	return r, out[32]
}

func TestSPAgainstGolden(t *testing.T) {
	ev := mustEval(buildSP(t))
	r := rand.New(rand.NewSource(11))
	interesting := []uint32{0, 1, 2, 0xffffffff, 0x80000000, 0x7fffffff, 31, 32, 33}
	check := func(fn SPFn, cond isa.Cond, a, b, c uint32) {
		t.Helper()
		gotR, gotP := evalSP(ev, fn, cond, a, b, c)
		wantR, wantP := SPGolden(fn, cond, a, b, c)
		if gotR != wantR || gotP != wantP {
			t.Fatalf("SP fn=%d cond=%v a=%#x b=%#x c=%#x: netlist (%#x,%v) != golden (%#x,%v)",
				fn, cond, a, b, c, gotR, gotP, wantR, wantP)
		}
	}
	for fn := SPFn(0); int(fn) < NumSPFns; fn++ {
		for _, a := range interesting {
			for _, b := range interesting {
				check(fn, isa.CondLT, a, b, 5)
			}
		}
		for i := 0; i < 200; i++ {
			check(fn, isa.Cond(r.Intn(isa.NumConds)), r.Uint32(), r.Uint32(), r.Uint32())
		}
	}
}

func TestSPSetAllConds(t *testing.T) {
	ev := mustEval(buildSP(t))
	pairs := [][2]uint32{{5, 5}, {3, 9}, {9, 3}, {0x80000000, 1}, {1, 0x80000000},
		{0xffffffff, 0}, {0, 0xffffffff}}
	for cond := isa.Cond(0); int(cond) < isa.NumConds; cond++ {
		for _, p := range pairs {
			gotR, gotP := evalSP(ev, SPSet, cond, p[0], p[1], 0)
			wantR, wantP := SPGolden(SPSet, cond, p[0], p[1], 0)
			if gotR != wantR || gotP != wantP {
				t.Fatalf("SET %v (%#x,%#x): got (%#x,%v), want (%#x,%v)",
					cond, p[0], p[1], gotR, gotP, wantR, wantP)
			}
		}
	}
}

func TestSPFnOfRouting(t *testing.T) {
	// INEG must route as 0-a.
	fn, a, b, _, ok := SPFnOf(isa.OpINEG, 42, 0, 0)
	if !ok || fn != SPSub || a != 0 || b != 42 {
		t.Errorf("INEG routing: fn=%d a=%d b=%d ok=%v", fn, a, b, ok)
	}
	// MOV routes its source into the pass operand.
	fn, _, b, _, ok = SPFnOf(isa.OpMOV, 7, 0, 0)
	if !ok || fn != SPPass || b != 7 {
		t.Errorf("MOV routing: fn=%d b=%d ok=%v", fn, b, ok)
	}
	// FP ops do not enter the SP integer datapath.
	if _, _, _, _, ok := SPFnOf(isa.OpFADD, 1, 2, 3); ok {
		t.Error("FADD mapped to SP datapath")
	}
	if _, _, _, _, ok := SPFnOf(isa.OpGLD, 1, 2, 3); ok {
		t.Error("GLD mapped to SP datapath")
	}
}

func duOutIndex(nl *netlist.Netlist, name string) int {
	for i, n := range nl.OutputNames {
		if n == name {
			return i
		}
	}
	return -1
}

func duBusValue(nl *netlist.Netlist, out []bool, name string, width int) uint32 {
	var v uint32
	for i := 0; i < width; i++ {
		idx := duOutIndex(nl, name+"["+itoa(i)+"]")
		if idx < 0 {
			panic("missing output " + name)
		}
		if out[idx] {
			v |= 1 << uint(i)
		}
	}
	return v
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestDUAgainstGolden(t *testing.T) {
	nl := buildDU(t)
	ev := mustEval(nl)
	r := rand.New(rand.NewSource(5))

	check := func(word isa.Word, pc int) {
		t.Helper()
		p := EncodeDUPattern(word, pc)
		out := evalOnce(ev, p.Bools(duInputs))
		want := DUGolden(word, pc)

		if got := out[duOutIndex(nl, "valid")]; got != want.Valid {
			t.Fatalf("word %#x: valid = %v, want %v", word, got, want.Valid)
		}
		for cl := 0; cl < 5; cl++ {
			name := "class_" + isa.Class(cl).String()
			if got := out[duOutIndex(nl, name)]; got != want.Class[cl] {
				t.Fatalf("word %#x: %s = %v, want %v", word, name, got, want.Class[cl])
			}
		}
		if got := uint16(duBusValue(nl, out, "ctrl", 16)); got != want.Ctrl {
			t.Fatalf("word %#x: ctrl = %#x, want %#x", word, got, want.Ctrl)
		}
		if got := uint8(duBusValue(nl, out, "rd", 6)); got != want.Rd {
			t.Fatalf("word %#x: rd = %d, want %d", word, got, want.Rd)
		}
		if got := uint8(duBusValue(nl, out, "ra", 6)); got != want.Ra {
			t.Fatalf("word %#x: ra = %d, want %d", word, got, want.Ra)
		}
		if got := uint8(duBusValue(nl, out, "rb", 6)); got != want.Rb {
			t.Fatalf("word %#x: rb = %d, want %d", word, got, want.Rb)
		}
		if got := out[duOutIndex(nl, "imm_par")]; got != want.ImmPar {
			t.Fatalf("word %#x: imm_par = %v, want %v", word, got, want.ImmPar)
		}
		if got := duBusValue(nl, out, "branch_pc", duPCWidth); got != want.BranchPC {
			t.Fatalf("word %#x pc %d: branch_pc = %#x, want %#x", word, pc, got, want.BranchPC)
		}
	}

	// All opcodes with random fields.
	for op := 0; op < isa.NumOpcodes; op++ {
		in := isa.Instruction{
			Op: isa.Opcode(op), Rd: uint8(r.Intn(64)), Ra: uint8(r.Intn(64)),
			Rb: uint8(r.Intn(64)), Imm: int32(r.Uint32()),
			Cond: isa.Cond(r.Intn(isa.NumConds)), Pg: isa.PredAlways,
		}
		check(isa.Encode(in), r.Intn(1<<16))
	}
	// Illegal opcodes must decode as invalid with zero ctrl.
	for op := isa.NumOpcodes; op < 64; op++ {
		check(isa.Word(uint64(op)<<58|uint64(r.Uint32())<<8), 0)
	}
	// Fully random words.
	for i := 0; i < 300; i++ {
		check(isa.Word(r.Uint64()), r.Intn(1<<20))
	}
}

func TestSFUAgainstGolden(t *testing.T) {
	ev := mustEval(buildSFU(t))
	r := rand.New(rand.NewSource(3))
	check := func(fn SFUFn, a uint32) {
		t.Helper()
		p := EncodeSFUPattern(fn, a)
		out := evalOnce(ev, p.Bools(sfuInputs))
		var got uint32
		for i := 0; i < 32; i++ {
			if out[i] {
				got |= 1 << uint(i)
			}
		}
		if want := SFUGolden(fn, a); got != want {
			t.Fatalf("SFU fn=%d a=%#x: netlist %#x != golden %#x", fn, a, got, want)
		}
	}
	for fn := SFUFn(0); int(fn) < NumSFUFns; fn++ {
		check(fn, 0)
		check(fn, 0xffffffff)
		check(fn, 0x3f800000) // 1.0f
		check(fn, 0xbf800000) // -1.0f
		for i := 0; i < 300; i++ {
			check(fn, r.Uint32())
		}
	}
}

func TestSFUMonotoneSegments(t *testing.T) {
	// The 2^x coefficient table must be strictly increasing in c0.
	c0, c1, c2 := sfuROMTables()
	for i := 1; i < len(c0); i++ {
		if c0[i] <= c0[i-1] {
			t.Fatalf("c0[%d]=%d not increasing", i, c0[i])
		}
	}
	for i := range c1 {
		if c1[i] >= 1<<sfuC1Bits {
			t.Fatalf("c1[%d]=%d overflows %d bits", i, c1[i], sfuC1Bits)
		}
		if c2[i] >= 1<<sfuC2Bits {
			t.Fatalf("c2[%d]=%d overflows %d bits", i, c2[i], sfuC2Bits)
		}
	}
	if c0[len(c0)-1] >= 1<<sfuC0Bits {
		t.Fatalf("c0 overflows %d bits", sfuC0Bits)
	}
}

func TestBuildModuleKinds(t *testing.T) {
	for k := ModuleKind(0); int(k) < NumModuleKinds; k++ {
		m, err := Build(k, 0)
		if err != nil {
			t.Fatalf("Build(%v): %v", k, err)
		}
		wantLanes := map[ModuleKind]int{ModuleDU: 1, ModuleSP: 8, ModuleSFU: 2,
			ModuleFP32: 8}[k]
		if m.Lanes != wantLanes {
			t.Errorf("%v lanes = %d, want %d", k, m.Lanes, wantLanes)
		}
		if m.NL == nil || m.Kind != k {
			t.Errorf("%v malformed module", k)
		}
		if got, err := ParseModuleKind(k.String()); err != nil || got != k {
			t.Errorf("ParseModuleKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := Build(ModuleKind(99), 0); err == nil {
		t.Error("unknown kind accepted")
	}
	for _, name := range []string{"", "du", "PIPE", "ModuleKind(4)"} {
		if _, err := ParseModuleKind(name); err == nil {
			t.Errorf("ParseModuleKind(%q) accepted", name)
		}
	}
}

func TestPatternApplyTo(t *testing.T) {
	p := EncodeSPPattern(SPXor, isa.CondEQ, 0xdeadbeef, 0x12345678, 0xffffffff)
	dst := make([]uint64, spInputs)
	p.ApplyTo(dst, 5)
	for i := 0; i < spInputs; i++ {
		want := uint64(0)
		if p.Bit(i) {
			want = 1 << 5
		}
		if dst[i] != want {
			t.Fatalf("input %d: %#x, want %#x", i, dst[i], want)
		}
	}
	// a occupies bits 0..31.
	for i := 0; i < 32; i++ {
		if p.Bit(i) != (0xdeadbeef>>uint(i)&1 == 1) {
			t.Fatalf("a bit %d wrong", i)
		}
	}
	// fn occupies bits 96..99.
	for i := 0; i < 4; i++ {
		if p.Bit(96+i) != (uint8(SPXor)>>uint(i)&1 == 1) {
			t.Fatalf("fn bit %d wrong", i)
		}
	}
}

func TestPackPatternsMatchesApplyTo(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	for _, numIn := range []int{1, 17, 63, 64, 65, 100, 128} {
		for _, count := range []int{1, 5, 63, 64} {
			pats := make([]Pattern, count)
			for s := range pats {
				pats[s] = Pattern{W: [2]uint64{r.Uint64(), r.Uint64()}}
			}
			want := make([]uint64, numIn)
			for s, p := range pats {
				p.ApplyTo(want, uint(s))
			}
			got := make([]uint64, numIn)
			PackPatterns(pats, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("numIn=%d count=%d input %d: PackPatterns %#x, ApplyTo %#x",
						numIn, count, i, got[i], want[i])
				}
			}
		}
	}
}
