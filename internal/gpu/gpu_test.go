package gpu

import (
	"math"
	"math/bits"
	"testing"

	"gpustl/internal/asm"
	"gpustl/internal/isa"
)

func mustProg(t *testing.T, src string) []isa.Instruction {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func run(t *testing.T, src string, tpb int, mon Monitor) Result {
	t.Helper()
	g, err := New(DefaultConfig(), mon)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(Kernel{Prog: mustProg(t, src), Blocks: 1, ThreadsPerBlock: tpb})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// word reads global memory word i from the result.
func word(res Result, byteAddr uint32) uint32 { return res.Global.Word(int(byteAddr / 4)) }

func TestStraightLineArithmetic(t *testing.T) {
	res := run(t, `
		MVI  R1, 21
		MVI  R2, 2
		IMUL R3, R1, R2
		MVI  R4, 0
		GST  [R4+0], R3
		EXIT
	`, 32, nil)
	if got := word(res, 0); got != 42 {
		t.Fatalf("result = %d, want 42", got)
	}
	if res.Cycles == 0 || res.Instructions != 6 {
		t.Fatalf("cycles=%d instrs=%d", res.Cycles, res.Instructions)
	}
}

func TestPerThreadTID(t *testing.T) {
	res := run(t, `
		S2R   R0, SR_TID
		SHLI  R1, R0, 2      ; byte address = tid*4
		IMULI R2, R0, 3
		GST   [R1+0], R2
		EXIT
	`, 32, nil)
	for tid := uint32(0); tid < 32; tid++ {
		if got := word(res, tid*4); got != tid*3 {
			t.Fatalf("thread %d stored %d, want %d", tid, got, tid*3)
		}
	}
}

func TestMultiWarp(t *testing.T) {
	res := run(t, `
		S2R  R0, SR_TID
		SHLI R1, R0, 2
		S2R  R2, SR_WARP
		GST  [R1+0], R2
		EXIT
	`, 128, nil)
	for tid := uint32(0); tid < 128; tid++ {
		if got := word(res, tid*4); got != tid/32 {
			t.Fatalf("thread %d warp = %d, want %d", tid, got, tid/32)
		}
	}
}

func TestSharedMemory(t *testing.T) {
	res := run(t, `
		S2R  R0, SR_TID
		SHLI R1, R0, 2
		IADDI R2, R0, 100
		SST  [R1+0], R2      ; shared[tid] = tid+100
		MVI  R3, 124
		ISUB R3, R3, R1      ; reversed index
		SLD  R4, [R3+0]      ; shared[31-tid]
		GST  [R1+0], R4
		EXIT
	`, 32, nil)
	for tid := uint32(0); tid < 32; tid++ {
		want := (31 - tid) + 100
		if got := word(res, tid*4); got != want {
			t.Fatalf("thread %d got %d, want %d", tid, got, want)
		}
	}
}

func TestConstantMemory(t *testing.T) {
	g, _ := New(DefaultConfig(), nil)
	res, err := g.Run(Kernel{
		Prog: mustProg(t, `
			S2R  R0, SR_TID
			SHLI R1, R0, 2
			LDC  R2, [R1+0]
			GST  [R1+0], R2
			EXIT`),
		Blocks: 1, ThreadsPerBlock: 32,
		ConstantData: []uint32{7, 8, 9, 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint32{7, 8, 9, 10} {
		if got := word(res, uint32(i*4)); got != want {
			t.Fatalf("const[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestGlobalDataInit(t *testing.T) {
	g, _ := New(DefaultConfig(), nil)
	res, err := g.Run(Kernel{
		Prog: mustProg(t, `
			S2R  R0, SR_TID
			SHLI R1, R0, 2
			GLD  R2, [R1+4096]
			IADDI R2, R2, 1
			GST  [R1+0], R2
			EXIT`),
		Blocks: 1, ThreadsPerBlock: 32,
		GlobalBase: 4096, GlobalData: []uint32{10, 20, 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if word(res, 0) != 11 || word(res, 4) != 21 || word(res, 8) != 31 {
		t.Fatalf("got %d %d %d", word(res, 0), word(res, 4), word(res, 8))
	}
}

func TestIfElseDivergence(t *testing.T) {
	// threads with tid < 16 take the else path (BRA when P0 true means
	// "skip then"), others run the then path; all must reconverge.
	res := run(t, `
		S2R   R0, SR_TID
		SHLI  R1, R0, 2
		ISETI R9, R0, 16, LT, P0
		SSY   endif
		@P0 BRA else_
		MVI   R2, 111        ; then: tid >= 16
		BRA   endif
	else_:
		MVI   R2, 222        ; else: tid < 16
	endif:
		IADDI R2, R2, 1      ; runs once per thread after reconvergence
		GST   [R1+0], R2
		EXIT
	`, 32, nil)
	for tid := uint32(0); tid < 32; tid++ {
		want := uint32(112)
		if tid < 16 {
			want = 223
		}
		if got := word(res, tid*4); got != want {
			t.Fatalf("thread %d got %d, want %d", tid, got, want)
		}
	}
}

func TestUniformLoop(t *testing.T) {
	res := run(t, `
		S2R   R0, SR_TID
		SHLI  R1, R0, 2
		MVI   R2, 0          ; acc
		MVI   R3, 0          ; i
	loop:
		IADD  R2, R2, R3
		IADDI R3, R3, 1
		ISETI R9, R3, 5, LT, P0
		@P0 BRA loop
		GST   [R1+0], R2     ; 0+1+2+3+4 = 10
		EXIT
	`, 32, nil)
	for tid := uint32(0); tid < 32; tid++ {
		if got := word(res, tid*4); got != 10 {
			t.Fatalf("thread %d sum = %d, want 10", tid, got)
		}
	}
}

func TestDivergentLoopTripCounts(t *testing.T) {
	// Each thread iterates tid%4+1 times; sum = trip count.
	res := run(t, `
		S2R   R0, SR_TID
		SHLI  R1, R0, 2
		ANDI  R5, R0, 3
		IADDI R5, R5, 1      ; trips = tid%4 + 1
		MVI   R2, 0
		MVI   R3, 0
		SSY   after
	loop:
		IADDI R2, R2, 1
		IADDI R3, R3, 1
		ISET  R9, R3, R5, LT, P0
		@P0 BRA loop
	after:
		GST   [R1+0], R2
		EXIT
	`, 32, nil)
	for tid := uint32(0); tid < 32; tid++ {
		want := tid%4 + 1
		if got := word(res, tid*4); got != want {
			t.Fatalf("thread %d count = %d, want %d", tid, got, want)
		}
	}
}

func TestNestedIf(t *testing.T) {
	res := run(t, `
		S2R   R0, SR_TID
		SHLI  R1, R0, 2
		MVI   R2, 0
		ISETI R9, R0, 16, LT, P0
		SSY   out
		@P0 BRA half
		BRA   out
	half:                     ; tid < 16
		ISETI R9, R0, 8, LT, P1
		SSY   out2
		@P1 BRA quarter
		BRA   out2
	quarter:                  ; tid < 8
		IADDI R2, R2, 100
	out2:
		IADDI R2, R2, 10
	out:
		IADDI R2, R2, 1
		GST   [R1+0], R2
		EXIT
	`, 32, nil)
	for tid := uint32(0); tid < 32; tid++ {
		var want uint32
		switch {
		case tid < 8:
			want = 111
		case tid < 16:
			want = 11
		default:
			want = 1
		}
		if got := word(res, tid*4); got != want {
			t.Fatalf("thread %d got %d, want %d", tid, got, want)
		}
	}
}

func TestCallReturn(t *testing.T) {
	res := run(t, `
		S2R   R0, SR_TID
		SHLI  R1, R0, 2
		MVI   R2, 5
		CAL   double
		CAL   double
		GST   [R1+0], R2      ; 5*4 = 20
		EXIT
	double:
		IADD  R2, R2, R2
		RET
	`, 32, nil)
	for tid := uint32(0); tid < 32; tid++ {
		if got := word(res, tid*4); got != 20 {
			t.Fatalf("thread %d got %d, want 20", tid, got)
		}
	}
}

func TestBarrier(t *testing.T) {
	// Warp 0 writes shared, all warps barrier, warp 1 reads warp 0's data.
	res := run(t, `
		S2R   R0, SR_TID
		SHLI  R1, R0, 2
		IADDI R2, R0, 1000
		SST   [R1+0], R2     ; shared[tid] = tid + 1000
		BAR
		MVI   R3, 255
		ISUB  R3, R3, R0     ; 255 - tid
		SHLI  R3, R3, 2
		SLD   R4, [R3+0]     ; shared[255-tid], written by the other warps
		GST   [R1+0], R4
		EXIT
	`, 256, nil)
	for tid := uint32(0); tid < 256; tid++ {
		want := (255 - tid) + 1000
		if got := word(res, tid*4); got != want {
			t.Fatalf("thread %d got %d, want %d", tid, got, want)
		}
	}
}

func TestPredicatedExecution(t *testing.T) {
	res := run(t, `
		S2R   R0, SR_TID
		SHLI  R1, R0, 2
		MVI   R2, 7
		ISETI R9, R0, 1, EQ, P1
		@P1  MVI R2, 99       ; only thread 1
		@!P1 IADDI R2, R2, 1  ; everyone else
		GST   [R1+0], R2
		EXIT
	`, 32, nil)
	for tid := uint32(0); tid < 32; tid++ {
		want := uint32(8)
		if tid == 1 {
			want = 99
		}
		if got := word(res, tid*4); got != want {
			t.Fatalf("thread %d got %d, want %d", tid, got, want)
		}
	}
}

func TestFloatOps(t *testing.T) {
	res := run(t, `
		MVI  R1, 3
		I2F  R2, R1          ; 3.0
		MVI  R3, 4
		I2F  R4, R3          ; 4.0
		FMUL R5, R2, R4      ; 12.0
		FADD R5, R5, R2      ; 15.0
		FFMA R5, R2, R4      ; 3*4 + 15 = 27.0
		F2I  R6, R5
		MVI  R7, 0
		GST  [R7+0], R6
		EXIT
	`, 32, nil)
	if got := word(res, 0); got != 27 {
		t.Fatalf("float chain = %d, want 27", got)
	}
}

func TestSFUOps(t *testing.T) {
	res := run(t, `
		MVI  R1, 4
		I2F  R2, R1
		RSQ  R3, R2          ; 1/2
		RCP  R4, R3          ; 2
		F2I  R5, R4
		MVI  R7, 0
		GST  [R7+0], R5
		EXIT
	`, 32, nil)
	if got := word(res, 0); got != 2 {
		t.Fatalf("rcp(rsq(4)) = %d, want 2", got)
	}
}

func TestSFUAccuracy(t *testing.T) {
	cases := []struct {
		op   isa.Opcode
		x, y float64
	}{
		{isa.OpSIN, 1.0, math.Sin(1.0)},
		{isa.OpCOS, 0.5, math.Cos(0.5)},
		{isa.OpLG2, 8.0, 3.0},
		{isa.OpEX2, 3.0, 8.0},
	}
	for _, c := range cases {
		got := math.Float32frombits(evalSFU(c.op, math.Float32bits(float32(c.x))))
		if math.Abs(float64(got)-c.y) > 1e-5 {
			t.Errorf("%v(%g) = %g, want %g", c.op, c.x, got, c.y)
		}
	}
}

func TestExitMasksThreads(t *testing.T) {
	res := run(t, `
		S2R   R0, SR_TID
		SHLI  R1, R0, 2
		MVI   R2, 1
		GST   [R1+0], R2
		ISETI R9, R0, 16, LT, P0
		@P0 EXIT              ; lower half leaves early
		MVI   R2, 2
		GST   [R1+0], R2
		EXIT
	`, 32, nil)
	for tid := uint32(0); tid < 32; tid++ {
		want := uint32(1)
		if tid >= 16 {
			want = 2
		}
		if got := word(res, tid*4); got != want {
			t.Fatalf("thread %d got %d, want %d", tid, got, want)
		}
	}
}

func TestInvalidKernels(t *testing.T) {
	g, _ := New(DefaultConfig(), nil)
	if _, err := g.Run(Kernel{Prog: nil, Blocks: 1, ThreadsPerBlock: 32}); err == nil {
		t.Error("empty program accepted")
	}
	p := mustProg(t, "EXIT")
	if _, err := g.Run(Kernel{Prog: p, Blocks: 1, ThreadsPerBlock: 33}); err == nil {
		t.Error("non-multiple ThreadsPerBlock accepted")
	}
	if _, err := g.Run(Kernel{Prog: p, Blocks: 0, ThreadsPerBlock: 32}); err == nil {
		t.Error("zero blocks accepted")
	}
}

func TestInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSPs = 7
	if _, err := New(cfg, nil); err == nil {
		t.Error("NumSPs=7 accepted")
	}
	cfg = DefaultConfig()
	cfg.NumSFUs = 3
	if _, err := New(cfg, nil); err == nil {
		t.Error("NumSFUs=3 accepted")
	}
}

func TestCycleLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 500
	g, _ := New(cfg, nil)
	_, err := g.Run(Kernel{Prog: mustProg(t, "loop: BRA loop"), Blocks: 1, ThreadsPerBlock: 32})
	if err == nil {
		t.Fatal("infinite loop not caught")
	}
}

func TestSPWidthVariants(t *testing.T) {
	// FlexGripPlus supports 8, 16 or 32 SPs; results must agree, cycles
	// must shrink with more lanes.
	var cycles []uint64
	for _, sps := range []int{8, 16, 32} {
		cfg := DefaultConfig()
		cfg.NumSPs = sps
		g, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.Run(Kernel{Prog: mustProg(t, `
			S2R   R0, SR_TID
			SHLI  R1, R0, 2
			IMULI R2, R0, 7
			GST   [R1+0], R2
			EXIT`), Blocks: 1, ThreadsPerBlock: 32})
		if err != nil {
			t.Fatal(err)
		}
		for tid := uint32(0); tid < 32; tid++ {
			if got := res.Global.Word(int(tid)); got != tid*7 {
				t.Fatalf("%d SPs: thread %d got %d", sps, tid, got)
			}
		}
		cycles = append(cycles, res.Cycles)
	}
	if !(cycles[0] > cycles[1] && cycles[1] > cycles[2]) {
		t.Errorf("cycles should decrease with SP count: %v", cycles)
	}
}

// traceCollector checks monitor event plumbing.
type traceCollector struct {
	NopMonitor
	fetches   int
	decodes   int
	aluOps    int
	aluPasses int
	sfuOps    int
	stores    int
	retires   int
	lastCC    uint64
	ccSorted  bool
}

func (c *traceCollector) Fetch(cc uint64, warp, pc int, w isa.Word) {
	c.fetches++
	c.lastCC = cc
}
func (c *traceCollector) Decode(cc uint64, warp, pc int, in isa.Instruction) { c.decodes++ }
func (c *traceCollector) ALUPass(cc uint64, warp, pc int, op isa.Opcode, thread0 int, exec uint32, a, b, cop []uint32) {
	c.aluPasses++
	c.aluOps += bits.OnesCount32(exec)
}
func (c *traceCollector) SFUOp(cc uint64, warp, pc, lane, thread int, op isa.Opcode, a uint32) {
	c.sfuOps++
}
func (c *traceCollector) Store(cc uint64, warp, pc, thread int, sp Space, addr, v uint32) {
	c.stores++
}
func (c *traceCollector) Retire(ccStart, ccEnd uint64, warp, pc int) { c.retires++ }

func TestMonitorEvents(t *testing.T) {
	mon := &traceCollector{}
	run(t, `
		S2R   R0, SR_TID      ; ALU x32
		SHLI  R1, R0, 2       ; ALU x32
		SIN   R2, R1          ; SFU x32
		GST   [R1+0], R2      ; store x32
		EXIT
	`, 32, mon)
	if mon.fetches != 5 || mon.decodes != 5 || mon.retires != 5 {
		t.Errorf("fetch/decode/retire = %d/%d/%d, want 5 each", mon.fetches, mon.decodes, mon.retires)
	}
	if mon.aluOps != 64 || mon.aluPasses != 8 {
		t.Errorf("aluOps/aluPasses = %d/%d, want 64/8", mon.aluOps, mon.aluPasses)
	}
	if mon.sfuOps != 32 {
		t.Errorf("sfuOps = %d, want 32", mon.sfuOps)
	}
	if mon.stores != 32 {
		t.Errorf("stores = %d, want 32", mon.stores)
	}
}

func TestALUCostCalibration(t *testing.T) {
	// One warp, ALU-heavy program: the paper's Table I implies roughly
	// 60-75 cc per instruction per warp for such PTPs.
	const n = 200
	src := "MVI R1, 1\n"
	for i := 0; i < n-2; i++ {
		src += "IADD R2, R1, R1\n"
	}
	src += "EXIT\n"
	res := run(t, src, 32, nil)
	perInstr := float64(res.Cycles) / float64(res.Instructions)
	if perInstr < 50 || perInstr > 90 {
		t.Errorf("ALU cc/instr = %.1f, want within [50, 90]", perInstr)
	}
}

func TestMultipleBlocks(t *testing.T) {
	g, _ := New(DefaultConfig(), nil)
	res, err := g.Run(Kernel{
		Prog: mustProg(t, `
			S2R   R0, SR_TID
			S2R   R2, SR_CTAID
			IMULI R3, R2, 128     ; block offset in bytes (32 threads * 4)
			SHLI  R1, R0, 2
			IADD  R1, R1, R3
			GST   [R1+0], R2
			EXIT`),
		Blocks: 3, ThreadsPerBlock: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	for b := uint32(0); b < 3; b++ {
		for tid := uint32(0); tid < 32; tid++ {
			if got := res.Global.Word(int(b*32 + tid)); got != b {
				t.Fatalf("block %d thread %d got %d", b, tid, got)
			}
		}
	}
}
