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
//
// The collector is where a pattern's identity is decided: the module is
// combinational, so a (lane, input vector) that already occurred detects
// nothing new, and the report keeps each one once. Every later consumer
// — the fault simulations, the labeling join, the compacted-FC shortcut
// and the dist wire frame — reads that unique stream.
package trace

import (
	"cmp"
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

	Spans []Span
	// Patterns is the Test Pattern Report in application order, each
	// (lane, input vector) once, at its first occurrence and carrying
	// that occurrence's cc, warp and pc. Reversed gives the order of a
	// reverse-order run. Read it; only the collector appends to it.
	Patterns []fault.TimedPattern

	// LiteRows drops the Spans (pattern extraction only). Without spans
	// there is no Tracing Report and no cc → (warp, pc) index.
	LiteRows bool

	// curCond holds the latest decoded condition field per warp; the SM
	// decodes an instruction before its execute-stage callbacks fire, so
	// ALUPass can recover the comparison condition of ISET/ISETI from here.
	curCond []isa.Cond

	// last[i] is the latest occurrence of Patterns[i].
	last []occurrence
	// table is the open-addressed (lane, input vector) dictionary over
	// Patterns: a power-of-two slot array at most half full, each slot 0
	// (empty) or a Patterns index plus one. The hash only picks the
	// first slot to probe; matching compares lane and vector exactly.
	table []int32
	// emitted counts the patterns the run applied, repeats included.
	emitted int
}

// occurrence is where in the run a pattern was applied: its position
// among all emitted patterns, and its cc, warp and pc.
type occurrence struct {
	seq  int
	cc   uint64
	warp int16
	pc   int32
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

// addPattern records one applied pattern: a new (lane, input vector)
// joins the Test Pattern Report, a repeat only moves its entry's latest
// occurrence.
func (c *Collector) addPattern(p fault.TimedPattern) {
	at := occurrence{seq: c.emitted, cc: p.CC, warp: p.Warp, pc: p.PC}
	c.emitted++
	if 2*(len(c.Patterns)+1) > len(c.table) {
		c.rehash(max(64, 2*len(c.table)))
	}
	s := c.slot(p.Lane, p.Pat)
	if j := c.table[s]; j != 0 {
		c.last[j-1] = at
		return
	}
	c.Patterns = append(grow(c.Patterns, 1), p)
	c.last = append(grow(c.last, 1), at)
	c.table[s] = int32(len(c.Patterns))
}

// slot returns the table slot that holds (lane, pat), or the empty slot
// where it belongs. The table must have an empty slot.
func (c *Collector) slot(lane int16, pat circuits.Pattern) int {
	mask := len(c.table) - 1
	for s := int(hashLanePattern(lane, pat)) & mask; ; s = (s + 1) & mask {
		j := c.table[s]
		if j == 0 {
			return s
		}
		if e := &c.Patterns[j-1]; e.Lane == lane && e.Pat == pat {
			return s
		}
	}
}

// rehash rebuilds the table with n slots.
func (c *Collector) rehash(n int) {
	c.table = make([]int32, n)
	for i := range c.Patterns {
		c.table[c.slot(c.Patterns[i].Lane, c.Patterns[i].Pat)] = int32(i + 1)
	}
}

// hashLanePattern mixes a lane and a pattern's packed words into a slot
// hash. Collisions only cost probes, since matching is exact, so a fast
// mixer is all the table needs.
func hashLanePattern(lane int16, p circuits.Pattern) uint64 {
	h := p.W[0]*0x9E3779B97F4A7C15 ^ p.W[1]*0xBF58476D1CE4E5B9
	h ^= h >> 32
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 29
	return h ^ uint64(uint16(lane))*0x94D049BB133111EB
}

// Applied reports whether the run applied the input vector pat on lane.
func (c *Collector) Applied(lane int16, pat circuits.Pattern) bool {
	return len(c.table) > 0 && c.table[c.slot(lane, pat)] != 0
}

// Reversed returns the Test Pattern Report in the order a reverse-order
// run applies it (core.Options.ReversePatterns): the emitted stream
// reversed, each (lane, input vector) once at its first occurrence in
// that order. That is its last occurrence in the run, whose cc, warp
// and pc the entry carries, so the labeling join credits a reversed
// run's detections to the instruction that applied them last.
func (c *Collector) Reversed() []fault.TimedPattern {
	order := make([]int32, len(c.Patterns))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(c.last[b].seq, c.last[a].seq) })
	out := make([]fault.TimedPattern, len(order))
	for k, i := range order {
		at := &c.last[i]
		out[k] = fault.TimedPattern{CC: at.cc, Lane: c.Patterns[i].Lane, Warp: at.warp, PC: at.pc, Pat: c.Patterns[i].Pat}
	}
	return out
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
		c.addPattern(fault.TimedPattern{
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
