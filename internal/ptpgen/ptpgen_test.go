package ptpgen

import (
	"math/rand"
	"testing"

	"gpustl/internal/circuits"
	"gpustl/internal/gpu"
	"gpustl/internal/isa"
	"gpustl/internal/stl"
	"gpustl/internal/trace"
)

// storeCount wraps a monitor and counts the observable writes (GST/SST)
// it sees.
type storeCount struct {
	gpu.Monitor
	n int
}

func (s *storeCount) Store(uint64, int, int, int, gpu.Space, uint32, uint32) { s.n++ }

// runPTP executes a PTP on the simulated GPU with an optional monitor.
func runPTP(t *testing.T, p *stl.PTP, mon gpu.Monitor) gpu.Result {
	t.Helper()
	g, err := gpu.New(gpu.DefaultConfig(), mon)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(gpu.Kernel{
		Prog: p.Prog, Blocks: p.Kernel.Blocks, ThreadsPerBlock: p.Kernel.ThreadsPerBlock,
		GlobalBase: p.Data.Base, GlobalData: p.Data.Words,
	})
	if err != nil {
		t.Fatalf("%s failed to run: %v", p.Name, err)
	}
	return res
}

func TestIMMStructure(t *testing.T) {
	p := IMM(50, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Target != circuits.ModuleDU || p.Kernel.ThreadsPerBlock != 32 {
		t.Errorf("target/kernel: %v %+v", p.Target, p.Kernel)
	}
	if len(p.SBs) != 50 {
		t.Fatalf("SBs = %d", len(p.SBs))
	}
	// The paper reports DU-PTP SBs of 15 to 18 instructions.
	for i, sb := range p.SBs {
		if sb.Len() < 14 || sb.Len() > 19 {
			t.Errorf("SB %d has %d instructions", i, sb.Len())
		}
	}
	// ARC must cover everything except the protected pro/epilogue — "100%"
	// at Table I's reporting granularity.
	if f := p.ARCFraction(); f < 0.98 {
		t.Errorf("IMM ARC fraction = %f", f)
	}
	// Every immediate-format opcode must appear.
	seen := map[isa.Opcode]bool{}
	for _, in := range p.Prog {
		seen[in.Op] = true
	}
	for _, op := range immOps {
		if !seen[op] {
			t.Errorf("IMM does not cover %v", op)
		}
	}
}

func TestIMMRuns(t *testing.T) {
	p := IMM(30, 2)
	col := trace.NewCollector(circuits.ModuleDU)
	stores := &storeCount{Monitor: col}
	runPTP(t, p, stores)
	if len(col.Patterns) != len(p.Prog) {
		t.Errorf("DU patterns = %d, want %d (one per instruction, 1 warp)",
			len(col.Patterns), len(p.Prog))
	}
	if stores.n == 0 {
		t.Error("no observable stores")
	}
}

func TestIMMDeterminism(t *testing.T) {
	a, b := IMM(20, 7), IMM(20, 7)
	if len(a.Prog) != len(b.Prog) {
		t.Fatal("nondeterministic size")
	}
	for i := range a.Prog {
		if a.Prog[i] != b.Prog[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
	c := IMM(20, 8)
	same := len(a.Prog) == len(c.Prog)
	if same {
		identical := true
		for i := range a.Prog {
			if a.Prog[i] != c.Prog[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Fatal("different seeds produced identical programs")
		}
	}
}

func TestMEMStructure(t *testing.T) {
	p := MEM(40, 3)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.SBs) != 40 {
		t.Fatalf("SBs = %d", len(p.SBs))
	}
	if len(p.Data.Words) != 40*64 {
		t.Fatalf("data words = %d, want %d", len(p.Data.Words), 40*64)
	}
	for i, sb := range p.SBs {
		if sb.DataLen != 64 || sb.AddrInstr < sb.Start || sb.AddrInstr >= sb.End {
			t.Errorf("SB %d data meta: %+v", i, sb)
		}
		// The address instruction must be an MVI of the data address.
		in := p.Prog[sb.AddrInstr]
		if in.Op != isa.OpMVI || uint32(in.Imm) != p.Data.Base+uint32(sb.DataOff)*4 {
			t.Errorf("SB %d AddrInstr = %+v", i, in)
		}
	}
	// MEM must use global loads, shared stores and shared loads.
	seen := map[isa.Opcode]bool{}
	for _, in := range p.Prog {
		seen[in.Op] = true
	}
	for _, op := range []isa.Opcode{isa.OpGLD, isa.OpSST, isa.OpSLD, isa.OpGST} {
		if !seen[op] {
			t.Errorf("MEM does not use %v", op)
		}
	}
}

func TestMEMRuns(t *testing.T) {
	p := MEM(25, 4)
	stores := &storeCount{Monitor: gpu.NopMonitor{}}
	runPTP(t, p, stores)
	if stores.n == 0 {
		t.Error("no stores")
	}
}

func TestCNTRLStructure(t *testing.T) {
	p := CNTRL(20, 5)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Kernel.ThreadsPerBlock != 1024 {
		t.Errorf("CNTRL threads = %d, want 1024", p.Kernel.ThreadsPerBlock)
	}
	// Must contain control flow.
	seen := map[isa.Opcode]bool{}
	for _, in := range p.Prog {
		seen[in.Op] = true
	}
	if !seen[isa.OpBRA] || !seen[isa.OpSSY] {
		t.Error("CNTRL lacks control flow")
	}
	// ARC fraction around the paper's 90% (loops + scaffolding excluded).
	f := p.ARCFraction()
	if f < 0.60 || f > 0.97 {
		t.Errorf("CNTRL ARC fraction = %f, want ~0.9", f)
	}
	t.Logf("CNTRL: %d instructions, ARC %.1f%%", len(p.Prog), 100*f)
}

func TestCNTRLRunsWithDivergence(t *testing.T) {
	p := CNTRL(15, 6)
	res := runPTP(t, p, nil)
	if res.Cycles == 0 {
		t.Fatal("no cycles")
	}
	// All 32 warps × sections instructions: CNTRL is by far the most
	// cycles per static instruction (1024 threads).
	perInstr := float64(res.Cycles) / float64(len(p.Prog))
	if perInstr < 500 {
		t.Errorf("cc per static instruction = %.0f, expected >500 for 32 warps", perInstr)
	}
}

func TestRANDStructure(t *testing.T) {
	p := RAND(60, 9)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Target != circuits.ModuleSP {
		t.Errorf("target = %v", p.Target)
	}
	if f := p.ARCFraction(); f < 0.98 {
		t.Errorf("RAND ARC fraction = %f", f)
	}
	col := trace.NewCollector(circuits.ModuleSP)
	runPTP(t, p, col)
	if len(col.Patterns) == 0 {
		t.Fatal("no SP patterns")
	}
	// All SP lanes must receive patterns.
	lanes := map[int16]int{}
	for _, pt := range col.Patterns {
		lanes[pt.Lane]++
	}
	if len(lanes) != 8 {
		t.Errorf("lanes covered: %d, want 8", len(lanes))
	}
}

// randomSPPatterns builds "ATPG-like" SP patterns including some with
// illegal fn/cond encodings.
func randomSPPatterns(n int, seed int64) []circuits.Pattern {
	r := rand.New(rand.NewSource(seed))
	pats := make([]circuits.Pattern, n)
	for i := range pats {
		fn := circuits.SPFn(r.Intn(16)) // 14..15 are illegal
		cond := isa.Cond(r.Intn(8))     // 6..7 are illegal
		pats[i] = circuits.EncodeSPPattern(fn, cond, r.Uint32(), r.Uint32(), r.Uint32())
	}
	return pats
}

func TestTPGENConversion(t *testing.T) {
	pats := randomSPPatterns(200, 11)
	p, dropped := TPGEN(pats, 11)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Error("expected some unconvertible patterns (illegal encodings)")
	}
	if len(p.SBs) != 200-dropped {
		t.Fatalf("SBs = %d, want %d", len(p.SBs), 200-dropped)
	}
	t.Logf("TPGEN: %d patterns, %d dropped (%.1f%%)", len(pats), dropped,
		100*float64(dropped)/float64(len(pats)))
}

// TestTPGENAppliesPatterns verifies the converted program really applies
// each legal ATPG pattern to the SP datapath: the traced SP pattern stream
// must contain every converted (fn, a, b) tuple.
func TestTPGENAppliesPatterns(t *testing.T) {
	pats := randomSPPatterns(60, 13)
	p, _ := TPGEN(pats, 13)
	col := trace.NewCollector(circuits.ModuleSP)
	runPTP(t, p, col)

	applied := map[[2]uint64]bool{}
	for _, tp := range col.Patterns {
		applied[tp.Pat.W] = true
	}
	for _, want := range pats {
		fnRaw, condRaw, a, b, c := circuits.DecodeSPPattern(want)
		if int(fnRaw) >= circuits.NumSPFns {
			continue
		}
		fn := circuits.SPFn(fnRaw)
		if fn == circuits.SPSet && int(condRaw) >= isa.NumConds {
			continue
		}
		// Reconstruct the pattern as the datapath will see it after
		// conversion (unary ops lose unused operands; non-MAD ops lose c;
		// non-SET ops lose cond).
		var exp circuits.Pattern
		switch fn {
		case circuits.SPMad:
			exp = circuits.EncodeSPPattern(fn, isa.CondEQ, a, b, c)
		case circuits.SPNot:
			exp = circuits.EncodeSPPattern(fn, isa.CondEQ, a, 0, 0)
		case circuits.SPPass:
			exp = circuits.EncodeSPPattern(fn, isa.CondEQ, 0, b, 0)
		case circuits.SPSet:
			exp = circuits.EncodeSPPattern(fn, isa.Cond(condRaw), a, b, 0)
		default:
			exp = circuits.EncodeSPPattern(fn, isa.CondEQ, a, b, 0)
		}
		if !applied[exp.W] {
			t.Fatalf("converted pattern not applied: fn=%d a=%#x b=%#x", fn, a, b)
		}
	}
}

func TestSFUIMMConversion(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	pats := make([]circuits.Pattern, 100)
	for i := range pats {
		pats[i] = circuits.EncodeSFUPattern(circuits.SFUFn(r.Intn(8)), r.Uint32())
	}
	p, dropped := SFUIMM(pats, 17)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Error("expected dropped patterns for fn 6..7")
	}
	col := trace.NewCollector(circuits.ModuleSFU)
	runPTP(t, p, col)

	applied := map[[2]uint64]bool{}
	for _, tp := range col.Patterns {
		applied[tp.Pat.W] = true
	}
	for _, want := range pats {
		fnRaw, _ := circuits.DecodeSFUPattern(want)
		if int(fnRaw) >= circuits.NumSFUFns {
			continue
		}
		if !applied[want.W] {
			t.Fatalf("SFU pattern not applied: %+v", want)
		}
	}
	if f := p.ARCFraction(); f < 0.98 {
		t.Errorf("SFU_IMM ARC fraction = %f", f)
	}
}

func TestProtectedRegionsExcludePrologue(t *testing.T) {
	p := IMM(10, 1)
	arcs := p.ARCs()
	for _, r := range arcs {
		if r.Contains(0) || r.Contains(len(p.Prog)-1) {
			t.Fatalf("prologue/epilogue inside ARC: %+v", r)
		}
	}
	// All SBs must be inside ARCs.
	for _, sb := range p.SBs {
		inside := false
		for _, r := range arcs {
			if sb.Start >= r.Start && sb.End <= r.End {
				inside = true
				break
			}
		}
		if !inside {
			t.Fatalf("SB %+v outside ARCs %+v", sb, arcs)
		}
	}
}

func TestSignatureChainsAcrossSBs(t *testing.T) {
	// Removing the SpT dependence would break the RAND FC discussion; make
	// sure every SB folds into the shared accumulator and stores it.
	p := RAND(12, 21)
	for i, sb := range p.SBs {
		foundFold, foundStore := false, false
		for pc := sb.Start; pc < sb.End; pc++ {
			in := p.Prog[pc]
			if in.Op == isa.OpXOR && in.Rd == regAcc && in.Ra == regAcc {
				foundFold = true
			}
			if in.Op == isa.OpGST && in.Ra == regSig && in.Rb == regAcc {
				foundStore = true
			}
		}
		if !foundFold || !foundStore {
			t.Fatalf("SB %d lacks fold/store (fold=%v store=%v)", i, foundFold, foundStore)
		}
	}
}
