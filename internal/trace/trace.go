// Package trace implements the logic-tracing stage of the compaction
// method (stage 2 of the paper).
//
// A Collector plays the role of the hardware monitor the authors insert
// into one SM of the RT-level GPU model: attached to the simulator as a
// gpu.Monitor, it records the start and end cycle, warp identifier and
// program counter of every executed warp instruction — with the program,
// the Tracing Report — and, like the gate-level logic simulation,
// extracts the sequence of test patterns applied to the target module by
// observing the module's input activity (the Test Pattern Report).
package trace

import (
	"math/bits"
	"slices"

	"gpustl/internal/circuits"
	"gpustl/internal/fault"
	"gpustl/internal/gpu"
	"gpustl/internal/isa"
)

// Row is one line of the Tracing Report: one executed warp instruction.
// Rows are not collected; Rows derives them from the retire spans and
// the program.
type Row struct {
	CC   uint64 // the cycle the instruction is fetched (its span's start)
	Warp int16
	PC   int32
	Op   isa.Opcode
	Word isa.Word
}

// Span is the temporal life of one executed warp instruction (start/end
// clock cycles), recovered from the retire events.
type Span struct {
	Warp    int16
	PC      int32
	CCStart uint64
	CCEnd   uint64
}

// Collector gathers the retire spans and the target module's Test
// Pattern Report during one logic simulation. The spans and the program
// are the Tracing Report (see Rows).
type Collector struct {
	gpu.NopMonitor

	// Target selects which module's input patterns are extracted.
	Target circuits.ModuleKind

	Spans    []Span
	Patterns []fault.TimedPattern

	// LiteRows drops the Spans (pattern extraction only). Without spans
	// there is no Tracing Report and no cc → (warp, pc) index.
	LiteRows bool

	// curCond holds the latest decoded condition field per warp; the SM
	// decodes an instruction before its execute-stage callbacks fire, so
	// ALUPass can recover the comparison condition of ISET/ISETI from here.
	curCond []isa.Cond
}

// NewCollector creates a collector extracting patterns for the target
// module.
func NewCollector(target circuits.ModuleKind) *Collector {
	return &Collector{Target: target}
}

// grow returns s with room for n more elements. When s is full it
// doubles its capacity rather than letting append grow a large slice by
// a quarter at a time: a trace's streams run to hundreds of thousands of
// entries, and the smaller steps copy them several times as often.
// Asking slices.Grow for more than twice the capacity makes append
// allocate exactly that, and unlike make it leaves the copied part
// uncleared.
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(n, 2*cap(s)+1-len(s), 64))
}

// addPattern appends one pattern to the Test Pattern Report.
func (c *Collector) addPattern(p fault.TimedPattern) {
	c.Patterns = append(grow(c.Patterns, 1), p)
}

// Fetch implements gpu.Monitor; the raw word and PC form the DU pattern.
func (c *Collector) Fetch(cc uint64, warp, pc int, word isa.Word) {
	if c.Target == circuits.ModuleDU {
		c.addPattern(fault.TimedPattern{
			CC: cc, Lane: 0, Warp: int16(warp), PC: int32(pc),
			Pat: circuits.EncodeDUPattern(word, pc),
		})
	}
}

// Decode implements gpu.Monitor; it keeps the warp's condition field for
// the SP patterns of its comparisons.
func (c *Collector) Decode(cc uint64, warp, pc int, in isa.Instruction) {
	for len(c.curCond) <= warp {
		c.curCond = append(c.curCond, isa.CondEQ)
	}
	c.curCond[warp] = in.Cond
}

// ALUPass implements gpu.Monitor; SP-datapath operand tuples form the SP
// patterns and FP32-unit tuples the FP32 patterns (one per active thread
// of the pass, on the lane that executes it).
func (c *Collector) ALUPass(cc uint64, warp, pc int, op isa.Opcode, thread0 int, exec uint32, a, b, cop []uint32) {
	switch c.Target {
	case circuits.ModuleFP32:
		if _, _, _, _, ok := circuits.FP32FnOf(op, 0, 0, 0); !ok {
			return
		}
	case circuits.ModuleSP:
		if _, _, _, _, ok := circuits.SPFnOf(op, 0, 0, 0); !ok {
			return // FP32 op: executes outside the SP integer datapath
		}
	default:
		return
	}
	cond := isa.CondEQ
	if warp < len(c.curCond) {
		cond = c.curCond[warp]
	}
	c.Patterns = grow(c.Patterns, bits.OnesCount32(exec))
	for m := exec; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		var pat circuits.Pattern
		if c.Target == circuits.ModuleFP32 {
			fn, ra, rb, rc, _ := circuits.FP32FnOf(op, a[lane], b[lane], cop[lane])
			pat = circuits.EncodeFP32Pattern(fn, ra, rb, rc)
		} else {
			fn, ra, rb, rc, _ := circuits.SPFnOf(op, a[lane], b[lane], cop[lane])
			pat = circuits.EncodeSPPattern(fn, cond, ra, rb, rc)
		}
		c.Patterns = append(c.Patterns, fault.TimedPattern{
			CC: cc, Lane: int16(lane), Warp: int16(warp), PC: int32(pc), Pat: pat,
		})
	}
}

// SFUOp implements gpu.Monitor.
func (c *Collector) SFUOp(cc uint64, warp, pc, lane, thread int, op isa.Opcode, a uint32) {
	if c.Target != circuits.ModuleSFU {
		return
	}
	fn, ok := circuits.SFUFnOf(op)
	if !ok {
		return
	}
	c.addPattern(fault.TimedPattern{
		CC: cc, Lane: int16(lane), Warp: int16(warp), PC: int32(pc),
		Pat: circuits.EncodeSFUPattern(fn, a),
	})
}

// Retire implements gpu.Monitor.
func (c *Collector) Retire(ccStart, ccEnd uint64, warp, pc int) {
	if c.LiteRows {
		return
	}
	c.Spans = append(grow(c.Spans, 1), Span{
		Warp: int16(warp), PC: int32(pc), CCStart: ccStart, CCEnd: ccEnd,
	})
}

// Rows derives the Tracing Report's rows from the retire spans and the
// program they ran: one row per executed warp instruction, in execution
// order, stamped with the cycle it was fetched.
func Rows(spans []Span, prog []isa.Instruction) []Row {
	rows := make([]Row, len(spans))
	for i, s := range spans {
		in := prog[s.PC]
		rows[i] = Row{CC: s.CCStart, Warp: s.Warp, PC: s.PC, Op: in.Op, Word: isa.Encode(in)}
	}
	return rows
}

var _ gpu.Monitor = (*Collector)(nil)

// CCToPC builds the cc → (warp, pc) join index the labeling stage uses to
// match Fault Sim Report entries back to instructions: for each pattern
// cc, the warp instruction in flight. Built from the retire spans.
func (c *Collector) CCToPC() *CCIndex {
	idx := &CCIndex{spans: c.Spans}
	return idx
}

// CCIndex resolves clock cycles to the warp instruction occupying them.
// Spans are recorded in execution order (the SM runs one warp instruction
// at a time), so binary search over start cycles suffices.
type CCIndex struct {
	spans []Span
}

// Lookup returns the (warp, pc) whose span contains cc.
func (ix *CCIndex) Lookup(cc uint64) (warp int16, pc int32, ok bool) {
	lo, hi := 0, len(ix.spans)
	for lo < hi {
		mid := (lo + hi) / 2
		if ix.spans[mid].CCStart <= cc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0, 0, false
	}
	s := ix.spans[lo-1]
	if cc > s.CCEnd {
		return 0, 0, false
	}
	return s.Warp, s.PC, true
}
