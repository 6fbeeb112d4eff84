package trace

import (
	"testing"

	"gpustl/internal/asm"
	"gpustl/internal/circuits"
	"gpustl/internal/gpu"
	"gpustl/internal/isa"
)

const testProg = `
	S2R   R0, SR_TID
	SHLI  R1, R0, 2
	IADDI R2, R0, 5
	IMULI R3, R2, 3
	XOR   R4, R3, R0
	SIN   R5, R4
	GST   [R1+0], R4
	EXIT
`

func testProgram(t *testing.T) []isa.Instruction {
	t.Helper()
	prog, err := asm.Assemble(testProg)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// runMon runs testProg on one warp under mon.
func runMon(t *testing.T, mon gpu.Monitor) {
	t.Helper()
	g, err := gpu.New(gpu.DefaultConfig(), mon)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(gpu.Kernel{Prog: testProgram(t), Blocks: 1, ThreadsPerBlock: 32}); err != nil {
		t.Fatal(err)
	}
}

func runWith(t *testing.T, target circuits.ModuleKind) *Collector {
	t.Helper()
	col := NewCollector(target)
	runMon(t, col)
	return col
}

func TestTraceRowsAndSpans(t *testing.T) {
	col := runWith(t, circuits.ModuleDU)
	prog := testProgram(t)
	rows := Rows(col.Spans, prog)
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for i, r := range rows {
		if int(r.PC) != i {
			t.Errorf("row %d pc = %d", i, r.PC)
		}
		if r.Warp != 0 {
			t.Errorf("row %d warp = %d", i, r.Warp)
		}
		if r.Op != prog[i].Op || r.Word != isa.Encode(prog[i]) || r.CC != col.Spans[i].CCStart {
			t.Errorf("row %d = %+v, program has %v, span starts at %d", i, r, prog[i].Op, col.Spans[i].CCStart)
		}
	}
	if len(col.Spans) != 8 {
		t.Fatalf("spans = %d, want 8", len(col.Spans))
	}
	// Spans must be disjoint and increasing.
	for i := 1; i < len(col.Spans); i++ {
		if col.Spans[i].CCStart <= col.Spans[i-1].CCEnd {
			t.Fatalf("span %d overlaps previous", i)
		}
	}
}

func TestDUPatterns(t *testing.T) {
	col := runWith(t, circuits.ModuleDU)
	rows := Rows(col.Spans, testProgram(t))
	// One DU pattern per fetched warp instruction.
	if len(col.Patterns) != 8 {
		t.Fatalf("DU patterns = %d, want 8", len(col.Patterns))
	}
	for _, p := range col.Patterns {
		if p.Lane != 0 {
			t.Errorf("DU pattern lane = %d", p.Lane)
		}
		// The instruction-word field of the pattern must decode to the
		// opcode of the traced instruction at that PC.
		in, err := isa.Decode(isa.Word(p.Pat.W[0]))
		if err != nil {
			t.Fatalf("pattern word undecodable: %v", err)
		}
		if int(p.PC) >= len(rows) || rows[p.PC].Op != in.Op {
			t.Errorf("pattern pc %d op %v mismatch", p.PC, in.Op)
		}
	}
}

func TestSPPatterns(t *testing.T) {
	col := runWith(t, circuits.ModuleSP)
	// 5 ALU-class instructions (S2R, SHLI, IADDI, IMULI, XOR) x 32 threads.
	if col.emitted != 5*32 {
		t.Fatalf("SP patterns emitted = %d, want %d", col.emitted, 5*32)
	}
	checkUnique(t, col, 8)
	// The XOR instruction's pattern for thread 0: a = 15 (=(0+5)*3), b = 0.
	var found bool
	for _, p := range col.Patterns {
		if p.PC == 4 && p.Pat.W[0] == uint64(15) {
			found = true
			break
		}
	}
	if !found {
		t.Error("expected XOR pattern with a=15,b=0 for thread 0")
	}
}

func TestSFUPatterns(t *testing.T) {
	col := runWith(t, circuits.ModuleSFU)
	if col.emitted != 32 { // one SIN per thread
		t.Fatalf("SFU patterns emitted = %d, want 32", col.emitted)
	}
	checkUnique(t, col, 2)
	for i, p := range col.Patterns {
		fn := circuits.SFUFn(p.Pat.W[0] >> 32)
		if fn != circuits.SFUSin {
			t.Fatalf("pattern %d fn = %d, want SIN", i, fn)
		}
	}
}

// checkUnique checks that the collector's report holds each (lane,
// input vector) once, on lanes below lanes, in nondecreasing cc order.
func checkUnique(t *testing.T, col *Collector, lanes int16) {
	t.Helper()
	type key struct {
		lane int16
		pat  circuits.Pattern
	}
	seen := map[key]bool{}
	for i, p := range col.Patterns {
		k := key{p.Lane, p.Pat}
		if seen[k] || p.Lane < 0 || p.Lane >= lanes {
			t.Fatalf("pattern %d: lane %d, repeat %v", i, p.Lane, seen[k])
		}
		seen[k] = true
		if i > 0 && p.CC < col.Patterns[i-1].CC {
			t.Fatalf("pattern %d: cc %d after %d", i, p.CC, col.Patterns[i-1].CC)
		}
	}
}

func TestStores(t *testing.T) {
	log := &storeLog{}
	runMon(t, log)
	if len(log.stores) != 32 {
		t.Fatalf("stores = %d, want 32", len(log.stores))
	}
	for _, s := range log.stores {
		if s.space != gpu.SpaceGlobal || s.pc != 6 {
			t.Errorf("store %+v", s)
		}
	}
}

func TestCCIndexLookup(t *testing.T) {
	col := runWith(t, circuits.ModuleSP)
	idx := col.CCToPC()
	// Every extracted pattern's cc must resolve to its own (warp, pc).
	for _, p := range col.Patterns {
		warp, pc, ok := idx.Lookup(p.CC)
		if !ok {
			t.Fatalf("cc %d not found", p.CC)
		}
		if warp != p.Warp || pc != p.PC {
			t.Fatalf("cc %d resolved to (%d,%d), pattern says (%d,%d)",
				p.CC, warp, pc, p.Warp, p.PC)
		}
	}
	// Out-of-range cycles fail cleanly.
	if _, _, ok := idx.Lookup(1 << 60); ok {
		t.Error("lookup past the end succeeded")
	}
}

func TestLiteRows(t *testing.T) {
	prog, err := asm.Assemble(testProg)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(circuits.ModuleSP)
	col.LiteRows = true
	g, _ := gpu.New(gpu.DefaultConfig(), col)
	if _, err := g.Run(gpu.Kernel{Prog: prog, Blocks: 1, ThreadsPerBlock: 32}); err != nil {
		t.Fatal(err)
	}
	if len(col.Spans) != 0 {
		t.Fatalf("LiteRows kept %d spans", len(col.Spans))
	}
	if len(col.Patterns) == 0 {
		t.Fatal("LiteRows dropped patterns")
	}
}

func TestISETCondReachesPattern(t *testing.T) {
	prog, err := asm.Assemble(`
		S2R   R0, SR_TID
		ISETI R1, R0, 7, GE, P0
		EXIT`)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(circuits.ModuleSP)
	g, _ := gpu.New(gpu.DefaultConfig(), col)
	if _, err := g.Run(gpu.Kernel{Prog: prog, Blocks: 1, ThreadsPerBlock: 32}); err != nil {
		t.Fatal(err)
	}
	var isetSeen bool
	for _, p := range col.Patterns {
		if p.PC != 1 {
			continue
		}
		isetSeen = true
		cond := isa.Cond(p.Pat.W[1] >> 36 & 0x7)
		if cond != isa.CondGE {
			t.Fatalf("ISET pattern cond = %v, want GE", cond)
		}
	}
	if !isetSeen {
		t.Fatal("no ISET pattern")
	}
}
