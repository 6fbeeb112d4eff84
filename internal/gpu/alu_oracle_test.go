package gpu

import (
	"math"
	"math/rand"
	"testing"

	"gpustl/internal/isa"
)

// This file holds the scalar, one-thread-at-a-time ALU/FPU semantics the
// simulator had before it evaluated whole register rows. It is kept as
// the oracle FuzzExecRows checks the row evaluator against.

// scalarOperands fetches the (a, b, c) inputs of an ALU/FPU instruction
// for thread t: a = R[Ra], b = R[Rb] or the immediate, c = R[Rd] for the
// multiply-add accumulators.
func scalarOperands(regs *[isa.NumGPR]row, t int, in isa.Instruction) (a, b, c uint32) {
	if isa.ReadsRa(in.Op) {
		a = regs[in.Ra][t]
	}
	switch {
	case isa.ReadsRb(in.Op):
		b = regs[in.Rb][t]
	case isa.HasImm(in.Op) || in.Op == isa.OpMVI:
		b = uint32(in.Imm)
	}
	if isa.ReadsRd(in.Op) {
		c = regs[in.Rd][t]
	}
	return a, b, c
}

// scalarSpecial resolves S2R special-register reads for thread t of
// warp w.
func scalarSpecial(g *GPU, w *warpState, t int) func(int32) uint32 {
	return func(sr int32) uint32 {
		switch sr {
		case isa.SRTid:
			return uint32(w.id*WarpSize + t)
		case isa.SRNTid:
			return uint32(g.tpb)
		case isa.SRCTAid:
			return uint32(g.block)
		case isa.SRWarp:
			return uint32(w.id)
		case isa.SRLane:
			return uint32(t % WarpSize)
		}
		return 0
	}
}

// evalALU computes the result and predicate outcome of an ALU/FPU-class
// instruction given one thread's operand values.
func evalALU(in isa.Instruction, a, b, c uint32, special func(int32) uint32) (res uint32, pred bool) {
	switch in.Op {
	case isa.OpMOV:
		res = a
	case isa.OpMVI:
		res = b
	case isa.OpS2R:
		res = special(in.Imm)
	case isa.OpIADD, isa.OpIADDI:
		res = a + b
	case isa.OpISUB, isa.OpISUBI:
		res = a - b
	case isa.OpIMUL, isa.OpIMULI:
		res = a * b
	case isa.OpIMAD:
		res = a*b + c
	case isa.OpIMIN:
		res = uint32(min(int32(a), int32(b)))
	case isa.OpIMAX:
		res = uint32(max(int32(a), int32(b)))
	case isa.OpINEG:
		res = -a
	case isa.OpAND, isa.OpANDI:
		res = a & b
	case isa.OpOR, isa.OpORI:
		res = a | b
	case isa.OpXOR, isa.OpXORI:
		res = a ^ b
	case isa.OpNOT:
		res = ^a
	case isa.OpSHL, isa.OpSHLI:
		res = a << (b & 31)
	case isa.OpSHR, isa.OpSHRI:
		res = a >> (b & 31)
	case isa.OpISET, isa.OpISETI:
		pred = intCond(in.Cond, int32(a), int32(b))
		if pred {
			res = 0xffffffff
		}
	case isa.OpFSET:
		pred = floatCond(in.Cond, f32(a), f32(b))
		if pred {
			res = 0xffffffff
		}
	case isa.OpFADD:
		res = u32(f32(a) + f32(b))
	case isa.OpFMUL:
		res = u32(f32(a) * f32(b))
	case isa.OpFFMA:
		res = u32(f32(a)*f32(b) + f32(c))
	case isa.OpFMIN:
		res = u32(float32(math.Min(float64(f32(a)), float64(f32(b)))))
	case isa.OpFMAX:
		res = u32(float32(math.Max(float64(f32(a)), float64(f32(b)))))
	case isa.OpF2I:
		res = uint32(int32(f32(a)))
	case isa.OpI2F:
		res = u32(float32(int32(a)))
	}
	return res, pred
}

// nanRule is the NaN the simulator's FP32 add, multiply and
// multiply-add give when an operand is a NaN: the first NaN operand,
// quieted, taking FFMA's accumulator first. Go leaves the payload of a
// NaN result to the code generator, so evalALU's own NaN bits change
// with the build (the race detector's instrumentation reorders FFMA's
// operands, for one); where its result is a NaN, the fuzz test holds
// the row evaluator to this rule instead. ok is false when the rule
// does not apply: another opcode, or no NaN operand.
func nanRule(op isa.Opcode, a, b, c uint32) (nan uint32, ok bool) {
	var order []uint32
	switch op {
	case isa.OpFADD, isa.OpFMUL:
		order = []uint32{a, b}
	case isa.OpFFMA:
		order = []uint32{c, a, b}
	}
	for _, x := range order {
		if isNaN32(x) {
			return x | 1<<22, true
		}
	}
	return 0, false
}

// aluOpcodes lists the ALU- and FPU-class opcodes.
func aluOpcodes() []isa.Opcode {
	var ops []isa.Opcode
	for op := isa.Opcode(0); int(op) < isa.NumOpcodes; op++ {
		if c := isa.ClassOf(op); c == isa.ClassALU || c == isa.ClassFPU {
			ops = append(ops, op)
		}
	}
	return ops
}

// passEvent is one recorded ALUPass call, with copies of its rows.
type passEvent struct {
	cc      uint64
	warp    int
	pc      int
	op      isa.Opcode
	thread0 int
	exec    uint32
	a, b, c []uint32
}

type passLog struct {
	NopMonitor
	passes []passEvent
}

func (p *passLog) ALUPass(cc uint64, warp, pc int, op isa.Opcode, thread0 int, exec uint32, a, b, c []uint32) {
	p.passes = append(p.passes, passEvent{cc, warp, pc, op, thread0, exec,
		append([]uint32(nil), a...), append([]uint32(nil), b...), append([]uint32(nil), c...)})
}

// FuzzExecRows checks the row evaluator against the scalar oracle: for
// a random ALU/FPU instruction, random register and predicate rows and a
// random exec mask, every lane's result register and predicate must be
// what evalALU computes for that thread alone, lanes outside the mask and
// every other register must be untouched, and the monitor must see one
// event per SP pass with active lanes carrying exactly the oracle's
// operand tuples.
func FuzzExecRows(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(2), uint8(3), uint8(0), uint8(0), int32(5), uint32(0xffffffff), int64(1), uint8(0))
	f.Add(uint8(7), uint8(4), uint8(4), uint8(4), uint8(1), uint8(2), int32(-3), uint32(0x0f0f00f1), int64(2), uint8(1))
	f.Add(uint8(2), uint8(9), uint8(0), uint8(0), uint8(3), uint8(4), int32(isa.SRTid), uint32(0x80000001), int64(3), uint8(2))
	f.Add(uint8(20), uint8(63), uint8(62), uint8(61), uint8(2), uint8(5), int32(1<<20), uint32(0), int64(4), uint8(0))
	ops := aluOpcodes()
	for i := range ops {
		f.Add(uint8(i), uint8(i), uint8(i+1), uint8(i+2), uint8(i), uint8(i), int32(i-3), uint32(0xdeadbeef)>>uint(i%32), int64(i), uint8(i))
	}
	f.Fuzz(func(t *testing.T, opSel, rd, ra, rb, pd, cond uint8, imm int32, exec uint32, seed int64, spSel uint8) {
		in := isa.Instruction{
			Op:   ops[int(opSel)%len(ops)],
			Rd:   rd % isa.NumGPR,
			Ra:   ra % isa.NumGPR,
			Rb:   rb % isa.NumGPR,
			Pd:   pd % isa.NumPred,
			Cond: isa.Cond(cond % 8),
			Imm:  imm,
			Pg:   isa.PredAlways,
		}
		if in.Op == isa.OpS2R {
			in.Imm = imm % 8
		}
		cfg := DefaultConfig()
		cfg.NumSPs = []int{8, 16, 32}[int(spSel)%3]
		mon := &passLog{}
		g, err := New(cfg, mon)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		g.tpb = WarpSize * (1 + r.Intn(4))
		g.block = r.Intn(5)
		g.cc = uint64(r.Intn(1000))
		w := &warpState{id: r.Intn(4), stack: []stackEntry{{pc: 7, rpc: noRPC, mask: 0xffffffff}}}
		for i := range w.regs {
			for l := range w.regs[i] {
				w.regs[i][l] = r.Uint32()
			}
		}
		for i := range w.preds {
			w.preds[i] = r.Uint32()
		}
		before := *w
		ccStart := g.cc

		g.execALU(w, 7, in, exec)

		// Registers and predicates, lane by lane.
		wantRegs, wantPreds := before.regs, before.preds
		for l := 0; l < WarpSize; l++ {
			if exec&(1<<l) == 0 {
				continue
			}
			a, b, c := scalarOperands(&before.regs, l, in)
			res, pr := evalALU(in, a, b, c, scalarSpecial(g, &before, l))
			if nan, ok := nanRule(in.Op, a, b, c); ok && isNaN32(res) {
				res = nan
			}
			if isa.WritesRd(in.Op) {
				wantRegs[in.Rd][l] = res
			}
			if isa.SetsPred(in.Op) {
				wantPreds[in.Pd] &^= 1 << l
				if pr {
					wantPreds[in.Pd] |= 1 << l
				}
			}
		}
		if w.regs != wantRegs {
			for i := range wantRegs {
				for l := range wantRegs[i] {
					if w.regs[i][l] != wantRegs[i][l] {
						t.Fatalf("%+v exec %#x: R%d lane %d = %#x, oracle %#x",
							in, exec, i, l, w.regs[i][l], wantRegs[i][l])
					}
				}
			}
		}
		if w.preds != wantPreds {
			t.Fatalf("%+v exec %#x: predicates %#x, oracle %#x", in, exec, w.preds, wantPreds)
		}
		if w.top().pc != 8 {
			t.Fatalf("pc = %d, want 8", w.top().pc)
		}

		// Monitor events: one per pass with an active lane.
		passLat := cfg.Timing.ALUPass
		if isa.ClassOf(in.Op) == isa.ClassFPU {
			passLat = cfg.Timing.FPUPass
		}
		n := cfg.NumSPs
		k := 0
		for p := 0; p < WarpSize/n; p++ {
			t0 := p * n
			var m uint32
			for l := 0; l < n; l++ {
				if exec&(1<<(t0+l)) != 0 {
					m |= 1 << l
				}
			}
			if m == 0 {
				continue
			}
			if k >= len(mon.passes) {
				t.Fatalf("%+v exec %#x: no event for pass %d", in, exec, p)
			}
			ev := mon.passes[k]
			k++
			if ev.cc != ccStart+uint64(p*passLat) || ev.warp != w.id || ev.pc != 7 ||
				ev.op != in.Op || ev.thread0 != t0 || ev.exec != m || len(ev.a) != n {
				t.Fatalf("%+v pass %d: event %+v", in, p, ev)
			}
			for l := 0; l < n; l++ {
				if m&(1<<l) == 0 {
					continue
				}
				a, b, c := scalarOperands(&before.regs, t0+l, in)
				if ev.a[l] != a || ev.b[l] != b || ev.c[l] != c {
					t.Fatalf("%+v thread %d: operands (%#x, %#x, %#x), oracle (%#x, %#x, %#x)",
						in, t0+l, ev.a[l], ev.b[l], ev.c[l], a, b, c)
				}
			}
		}
		if k != len(mon.passes) {
			t.Fatalf("%+v exec %#x: %d events, want %d", in, exec, len(mon.passes), k)
		}
		if g.cc != ccStart+uint64(WarpSize/n*passLat) {
			t.Fatalf("cc advanced to %d, want %d", g.cc, ccStart+uint64(WarpSize/n*passLat))
		}
	})
}
