package core

import (
	"reflect"
	"testing"

	"gpustl/internal/asm"
	"gpustl/internal/circuits"
	"gpustl/internal/fault"
	"gpustl/internal/gpu"
	"gpustl/internal/isa"
	"gpustl/internal/ptpgen"
	"gpustl/internal/stl"
	"gpustl/internal/trace"
)

func module(t testing.TB, k circuits.ModuleKind) *circuits.Module {
	t.Helper()
	m, err := circuits.Build(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sampledFaults(t testing.TB, m *circuits.Module, n int, seed int64) []fault.Fault {
	t.Helper()
	c := fault.NewCampaign(m)
	c.SampleFaults(n, seed)
	return c.Faults()
}

func TestLabelJoinsOnCC(t *testing.T) {
	rep := &fault.Report{
		Stream:             []fault.TimedPattern{{CC: 10}, {CC: 20}, {CC: 30}},
		DetectedPerPattern: []int32{0, 2, 0},
	}
	col := &trace.Collector{Spans: []trace.Span{
		{Warp: 0, PC: 0, CCStart: 5, CCEnd: 14},
		{Warp: 0, PC: 1, CCStart: 15, CCEnd: 24},
		{Warp: 0, PC: 2, CCStart: 25, CCEnd: 34},
	}}
	if det := detections(3, rep, col.CCToPC()); !reflect.DeepEqual(det, []int32{0, 2, 0}) {
		t.Fatalf("detections = %v, want only pc 1's 2", det)
	}
}

// makeRedundantPTP builds an SP-targeted PTP whose SBs are exact copies of
// each other (same operand values, no signature chaining): every SB after
// the first applies an identical SP pattern set, detects nothing new, and
// must be removed. (A DU-targeted version of this test cannot exist: the
// decoder's PC input makes instruction copies at different addresses apply
// different patterns — which the DU compaction results reflect.)
func makeRedundantPTP(t *testing.T) *stl.PTP {
	t.Helper()
	src := `
		S2R  R0, SR_TID
		SHLI R1, R0, 2
		MVI  R2, 65536
		IADD R2, R2, R1
	`
	for i := 0; i < 10; i++ {
		src += `
		MVI  R4, 0x12345678
		MVI  R5, 0x0F0FF0F0
		IADD R6, R4, R5
		GST  [R2+0], R6
		`
	}
	src += "EXIT\n"
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	p := &stl.PTP{
		Name: "REDUNDANT", Target: circuits.ModuleSP, Prog: prog,
		Kernel: stl.KernelConfig{Blocks: 1, ThreadsPerBlock: 32},
		Protected: []stl.Region{
			{Start: 0, End: 4},
			{Start: len(prog) - 1, End: len(prog)},
		},
	}
	for i := 0; i < 10; i++ {
		p.SBs = append(p.SBs, stl.SB{Start: 4 + i*4, End: 4 + (i+1)*4, AddrInstr: -1})
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompactRemovesRedundantSBs(t *testing.T) {
	m := module(t, circuits.ModuleSP)
	c := New(gpu.DefaultConfig(), m, sampledFaults(t, m, 4000, 1), Options{})
	p := makeRedundantPTP(t)
	res, err := c.CompactPTP(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedSBs != 9 {
		t.Errorf("removed %d/%d SBs, want exactly 9 (identical copies)",
			res.RemovedSBs, res.TotalSBs)
	}
	if res.CompSize >= res.OrigSize || res.CompDuration >= res.OrigDuration {
		t.Errorf("no compaction: size %d->%d, cc %d->%d",
			res.OrigSize, res.CompSize, res.OrigDuration, res.CompDuration)
	}
	// Identical patterns detect identical faults: FC must not drop at all.
	if res.FCDiff() < -0.01 {
		t.Errorf("FC dropped by %.3f on pure redundancy", res.FCDiff())
	}
}

func TestCompactIMMEndToEnd(t *testing.T) {
	m := module(t, circuits.ModuleDU)
	c := New(gpu.DefaultConfig(), m, sampledFaults(t, m, 4000, 2), Options{})
	p := ptpgen.IMM(80, 3)
	res, err := c.CompactPTP(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.SizeReduction() <= 0 {
		t.Errorf("size reduction %.2f%%", res.SizeReduction())
	}
	if res.DurationReduction() <= 0 {
		t.Errorf("duration reduction %.2f%%", res.DurationReduction())
	}
	// FC loss must be small (the method's selling point).
	if res.FCDiff() < -5 {
		t.Errorf("FC diff %.2f too negative", res.FCDiff())
	}
	// The compacted PTP must still be a valid, runnable program with the
	// protected prologue/epilogue intact.
	if res.Compacted.Prog[0].Op != isa.OpS2R {
		t.Error("prologue damaged")
	}
	if res.Compacted.Prog[len(res.Compacted.Prog)-1].Op != isa.OpEXIT {
		t.Error("epilogue damaged")
	}
	t.Logf("IMM: %d->%d instrs (-%.2f%%), %d->%d cc (-%.2f%%), FC %.2f->%.2f (%+.2f), %v",
		res.OrigSize, res.CompSize, res.SizeReduction(),
		res.OrigDuration, res.CompDuration, res.DurationReduction(),
		res.OrigFC, res.CompFC, res.FCDiff(), res.CompactionTime)
}

func TestCrossPTPDroppingIncreasesCompaction(t *testing.T) {
	m := module(t, circuits.ModuleDU)
	faults := sampledFaults(t, m, 3000, 4)

	// Compact MEM after IMM (shared campaign, dropping).
	c1 := New(gpu.DefaultConfig(), m, faults, Options{})
	imm := ptpgen.IMM(60, 5)
	mem := ptpgen.MEM(60, 6)
	if _, err := c1.CompactPTP(imm); err != nil {
		t.Fatal(err)
	}
	after, err := c1.CompactPTP(mem)
	if err != nil {
		t.Fatal(err)
	}

	// Compact MEM alone (fresh campaign).
	c2 := New(gpu.DefaultConfig(), m, faults, Options{})
	alone, err := c2.CompactPTP(mem)
	if err != nil {
		t.Fatal(err)
	}

	if after.SizeReduction() < alone.SizeReduction() {
		t.Errorf("dropping did not help: after IMM %.2f%% vs alone %.2f%%",
			after.SizeReduction(), alone.SizeReduction())
	}
	t.Logf("MEM compaction: alone -%.2f%%, after IMM -%.2f%%",
		alone.SizeReduction(), after.SizeReduction())
}

func TestCompactCNTRLPreservesControlFlow(t *testing.T) {
	m := module(t, circuits.ModuleDU)
	c := New(gpu.DefaultConfig(), m, sampledFaults(t, m, 2000, 7), Options{})
	p := ptpgen.CNTRL(12, 8)
	res, err := c.CompactPTP(p)
	if err != nil {
		t.Fatal(err)
	}
	// The compacted program must still run (branch repair correctness) —
	// CompactPTP already re-runs it; check it retains control flow and
	// compacts less than the straight-line PTPs.
	hasBranch := false
	for _, in := range res.Compacted.Prog {
		if in.Op == isa.OpBRA {
			hasBranch = true
		}
	}
	if !hasBranch {
		t.Error("compaction removed all branches")
	}
	t.Logf("CNTRL: -%.2f%% size, -%.2f%% cc, FC %+.2f",
		res.SizeReduction(), res.DurationReduction(), res.FCDiff())
}

func TestCompactMEMRelocatesData(t *testing.T) {
	m := module(t, circuits.ModuleDU)
	c := New(gpu.DefaultConfig(), m, sampledFaults(t, m, 2500, 9), Options{})
	p := ptpgen.MEM(50, 10)
	res, err := c.CompactPTP(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedSBs == 0 {
		t.Skip("nothing removed; cannot exercise relocation")
	}
	comp := res.Compacted
	if len(comp.Data.Words) >= len(p.Data.Words) {
		t.Errorf("data segment not compacted: %d -> %d words",
			len(p.Data.Words), len(comp.Data.Words))
	}
	// Every surviving SB's address instruction must point at its relocated
	// data.
	for i, sb := range comp.SBs {
		if sb.DataLen == 0 {
			continue
		}
		in := comp.Prog[sb.AddrInstr]
		want := comp.Data.Base + uint32(sb.DataOff)*4
		if in.Op != isa.OpMVI || uint32(in.Imm) != want {
			t.Fatalf("SB %d address not relocated: %+v, want imm %#x", i, in, want)
		}
	}
	// The relocated data must preserve the surviving SBs' original words:
	// the compacted program's pattern stream was already validated by the
	// FC re-simulation inside CompactPTP.
	if err := comp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReassembleBranchRepair(t *testing.T) {
	prog, err := asm.Assemble(`
		ISETI R1, R0, 3, LT, P0
		SSY endif
		@P0 BRA else_
		MVI R2, 1          ; SB to remove
		GST [R0+0], R2     ; SB to remove
		BRA endif
	else_:
		MVI R2, 2
	endif:
		GST [R0+4], R2
		EXIT
	`)
	if err != nil {
		t.Fatal(err)
	}
	p := &stl.PTP{
		Name: "br", Target: circuits.ModuleDU, Prog: prog,
		Kernel: stl.KernelConfig{Blocks: 1, ThreadsPerBlock: 32},
	}
	sbs := []stl.SB{{Start: 3, End: 5, AddrInstr: -1}}
	comp, err := Reassemble(p, sbs, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Prog) != len(prog)-2 {
		t.Fatalf("size %d", len(comp.Prog))
	}
	// Re-run and make sure the control flow still reconverges.
	g, _ := gpu.New(gpu.DefaultConfig(), nil)
	res, err := g.Run(gpu.Kernel{Prog: comp.Prog, Blocks: 1, ThreadsPerBlock: 32})
	if err != nil {
		t.Fatalf("repaired program does not run: %v", err)
	}
	// Threads with tid<3 took else (R2=2); others fell through the removed
	// then-arm, so R2 stays 2 from the else path only for tid<3; the rest
	// keep R2's prior value (0). Final store at [R0+4]: thread 0 writes.
	_ = res
	// Structural check: every branch target lands inside the program.
	for pc, in := range comp.Prog {
		if in.Op == isa.OpBRA || in.Op == isa.OpSSY {
			tgt := pc + 1 + int(in.Imm)
			if tgt < 0 || tgt > len(comp.Prog) {
				t.Fatalf("branch at %d targets %d", pc, tgt)
			}
		}
	}
}

func TestInstructionGranularityAblation(t *testing.T) {
	m := module(t, circuits.ModuleDU)
	faults := sampledFaults(t, m, 2500, 11)
	p := ptpgen.IMM(50, 12)

	sbRes, err := New(gpu.DefaultConfig(), m, faults, Options{}).CompactPTP(p)
	if err != nil {
		t.Fatal(err)
	}
	inRes, err := New(gpu.DefaultConfig(), m, faults,
		Options{InstructionGranularity: true}).CompactPTP(p)
	if err != nil {
		t.Fatal(err)
	}
	// Instruction granularity always removes at least as much code...
	if inRes.CompSize > sbRes.CompSize {
		t.Errorf("instruction granularity removed less: %d vs %d",
			inRes.CompSize, sbRes.CompSize)
	}
	t.Logf("SB: -%.2f%% FC%+.2f | instr: -%.2f%% FC%+.2f",
		sbRes.SizeReduction(), sbRes.FCDiff(),
		inRes.SizeReduction(), inRes.FCDiff())
}

func TestCompactSPWithRAND(t *testing.T) {
	m := module(t, circuits.ModuleSP)
	c := New(gpu.DefaultConfig(), m, sampledFaults(t, m, 6000, 13), Options{})
	p := ptpgen.RAND(60, 14)
	res, err := c.CompactPTP(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.SizeReduction() <= 0 {
		t.Errorf("no SP compaction: %.2f%%", res.SizeReduction())
	}
	t.Logf("RAND: -%.2f%% size, -%.2f%% cc, FC %.2f->%.2f",
		res.SizeReduction(), res.DurationReduction(), res.OrigFC, res.CompFC)
}

func TestCompactFP32WithFPRAND(t *testing.T) {
	m := module(t, circuits.ModuleFP32)
	c := New(gpu.DefaultConfig(), m, sampledFaults(t, m, 6000, 17), Options{})
	p := ptpgen.FPRAND(60, 18)
	res, err := c.CompactPTP(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.SizeReduction() <= 0 {
		t.Errorf("no FP32 compaction: %.2f%%", res.SizeReduction())
	}
	if res.OrigFC < 40 {
		t.Errorf("FPRAND coverage only %.2f%%", res.OrigFC)
	}
	t.Logf("FP_RAND: -%.2f%% size, -%.2f%% cc, FC %.2f->%.2f",
		res.SizeReduction(), res.DurationReduction(), res.OrigFC, res.CompFC)
}

func TestCompactWrongTarget(t *testing.T) {
	m := module(t, circuits.ModuleDU)
	c := New(gpu.DefaultConfig(), m, sampledFaults(t, m, 100, 1), Options{})
	p := ptpgen.RAND(5, 1) // targets SP
	if _, err := c.CompactPTP(p); err == nil {
		t.Fatal("mismatched target accepted")
	}
}

func TestCompactDeterminism(t *testing.T) {
	m := module(t, circuits.ModuleDU)
	faults := sampledFaults(t, m, 2000, 15)
	p := ptpgen.IMM(40, 16)
	a, err := New(gpu.DefaultConfig(), m, faults, Options{}).CompactPTP(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(gpu.DefaultConfig(), m, faults, Options{}).CompactPTP(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.CompSize != b.CompSize || a.OrigFC != b.OrigFC || a.CompFC != b.CompFC {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
	for i := range a.Compacted.Prog {
		if a.Compacted.Prog[i] != b.Compacted.Prog[i] {
			t.Fatalf("compacted instruction %d differs", i)
		}
	}
}
