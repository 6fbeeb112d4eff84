package netlist

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// StemCone is the static downstream cone of one fanout stem, compiled to
// compact run code, plus the primary outputs the stem reaches — the stem
// itself included when it is an output.
//
// The observability fill flips a stem to the complement of its
// fault-free row across a whole block (64×W patterns) and evaluates the
// static cone in one flat pass whose only per-gate work is the gate
// function itself, with no scheduling or divergence tests. The cone does
// not diverge everywhere: over an sp-lib campaign about half of the cone
// ops see no divergence in any of the 16 words of a block, and only a
// quarter of the words diverge. The flat pass stays because a fill that
// skipped non-divergent gates measured slower (docs/PERFORMANCE.md).
//
// Layout. The flipped stem row is faulty slot 0 and the i-th op writes
// faulty slot i+1, so destinations are implicit. Ops are emitted level
// by level and, within a level, grouped by gate kind. Code holds the
// groups as runs: a header word (kind<<16 | count), then the operand
// slots of each of the run's count ops, arity(kind) int32 words per op
// (a two-input op takes 8 bytes). A run longer than maxRunLen is split.
// An operand slot below len(Gates) reads that net's good row; slot
// len(Gates)+k reads faulty slot k. Both halves live in the evaluator's
// one combined buffer, so no op asks at run time which copy holds its
// operand.
//
// Cones are compiled lazily, one stem at a time, the first time an
// evaluator fills that stem's observability (stemCone).
type StemCone struct {
	Code []int32 // run code, see above
	Outs []int32 // (net, faulty slot) pairs of the reachable primary outputs
}

// maxRunLen is the largest op count a run header holds (its low 16
// bits); a longer same-kind group is emitted as several runs.
const maxRunLen = 1<<16 - 1

// runHeader encodes a run of n ops of kind k.
func runHeader(k Kind, n int) int32 { return int32(k)<<16 | int32(n) }

// stemConeBudget bounds the int32 words (Code and Outs) the cone cache
// holds per netlist: 2^25 words, a 128 MiB ceiling. A stem compiled once
// the budget is spent is not cached: every fill of it compiles the cone
// afresh into the filling evaluator's scratch (coneScratch.cone) and
// runs it from there.
const stemConeBudget = 1 << 25

// stemConeCache is a netlist's lazily filled cone cache: one slot per
// gate, compiled the first time any evaluator fills that stem's
// observability. Compiled cones are immutable, so evaluators on any
// goroutine share them; the budget is spent in compile order.
type stemConeCache struct {
	slots  []stemSlot
	budget atomic.Int64
}

type stemSlot struct {
	once sync.Once
	cone *StemCone // nil when the budget could not hold it
}

func (n *Netlist) initStemCones() {
	n.stems.slots = make([]stemSlot, len(n.Gates))
	n.stems.budget.Store(stemConeBudget)
}

// stemCone returns the compiled cone of fan-out stem g, compiling it
// with the caller's scratch on first use. Compiling only the stems that
// runs actually observe keeps a short or narrow run from paying for
// every cone of the netlist. An evaluator that asks for a stem another
// one is compiling waits for that compile instead of repeating it. A
// stem the cache has no budget for is compiled into scr.cone on every
// call; the result is valid until the caller's next stemCone.
func (n *Netlist) stemCone(g int32, scr *coneScratch) *StemCone {
	n.stemOnce.Do(n.initStemCones)
	s := &n.stems.slots[g]
	s.once.Do(func() { s.cone = n.cacheStemCone(g, scr) })
	if s.cone != nil {
		return s.cone
	}
	return n.compileStemCone(g, scr)
}

// coneScratch is an evaluator's reusable working set for compiling stem
// cones, allocated on its first compile.
type coneScratch struct {
	seen    []uint32 // cone membership, stamped with epoch
	epoch   uint32
	slot    []int32 // faulty slot of each emitted cone gate, the stem 0
	isOut   []bool
	queue   []int32
	buckets [][]int32 // cone gates per (level, kind), drained by every compile
	cone    StemCone  // the last stem compiled here (see stemCone)
}

// cacheStemCone compiles stem g's cone for the netlist's cache, or
// returns nil when the budget cannot hold it.
func (n *Netlist) cacheStemCone(g int32, scr *coneScratch) *StemCone {
	sc := n.compileStemCone(g, scr)
	words := int64(len(sc.Code) + len(sc.Outs))
	if n.stems.budget.Add(-words) < 0 {
		n.stems.budget.Add(words)
		return nil
	}
	return &StemCone{Code: slices.Clone(sc.Code), Outs: slices.Clone(sc.Outs)}
}

// compileStemCone compiles stem g's cone into scr.cone and returns it.
// Both the cached and the scratch path compile here, so every cone a
// kernel runs has passed checkStemCode once. The AVX2 kernel does no
// bounds checks of its own: a cone the emitter got wrong panics here
// instead of reaching it.
func (n *Netlist) compileStemCone(g int32, scr *coneScratch) *StemCone {
	sc := &scr.cone
	sc.Code, sc.Outs = n.emitStemCone(g, n.collectStemCone(g, scr), scr, sc.Code[:0], sc.Outs[:0])
	if err := checkStemCode(sc.Code, len(n.Gates)); err != nil {
		panic(fmt.Sprintf("netlist: stem %d compiled to unsafe cone code: %v", g, err))
	}
	return sc
}

// checkStemCode checks that cone code stays inside the combined buffer
// of an evaluator over ng gates when it runs from faulty slot 1: every
// run header names a cone kind and at least one op, every run's
// operands lie inside the code, every operand slot lies in [0, 2·ng),
// and the op count is below ng, so the last op writes faulty slot ng-1
// at most.
func checkStemCode(code []int32, ng int) error {
	ops := 0
	for pc := 0; pc < len(code); {
		k, n := code[pc]>>16, int(code[pc]&maxRunLen)
		if k < int32(KBuf) || k > int32(KMux) || n == 0 {
			return fmt.Errorf("pc %d: bad run header %#x", pc, code[pc])
		}
		end := pc + 1 + n*arity(Kind(k))
		if end > len(code) {
			return fmt.Errorf("pc %d: run of %d %v ops overruns %d code words", pc, n, Kind(k), len(code))
		}
		for i, s := range code[pc+1 : end] {
			if s < 0 || int(s) >= 2*ng {
				return fmt.Errorf("pc %d: operand slot %d outside [0, %d)", pc+1+i, s, 2*ng)
			}
		}
		pc = end
		ops += n
	}
	if ops >= ng {
		return fmt.Errorf("%d ops write past faulty slot %d", ops, ng-1)
	}
	return nil
}

// opKinds is the number of combinational kinds a cone op can have,
// KBuf through KMux: sources have no input pins, so they never appear
// in a fan-out cone.
const opKinds = int(KMux-KBuf) + 1

// collectStemCone marks stem g's static fan-out cone in scr and returns
// its gates, stem excluded, in breadth-first order. Gates that reach no
// primary output are left out: they can never influence an
// observability row, and their consumers are equally unreachable, so no
// retained gate ever reads a dropped gate's row.
func (n *Netlist) collectStemCone(g int32, scr *coneScratch) []int32 {
	if scr.seen == nil {
		scr.seen = make([]uint32, len(n.Gates))
		scr.slot = make([]int32, len(n.Gates))
		scr.isOut = make([]bool, len(n.Gates))
		for _, o := range n.Outputs {
			scr.isOut[o] = true
		}
		scr.buckets = make([][]int32, int(n.maxLvl+1)*opKinds)
	}
	scr.epoch++
	if scr.epoch == 0 { // uint32 wrap: clear stale membership for real
		clear(scr.seen)
		scr.epoch = 1
	}
	seen, epoch := scr.seen, scr.epoch
	reach := n.Cone().firstOut
	seen[g] = epoch
	queue := append(scr.queue[:0], g)
	for qi := 0; qi < len(queue); qi++ {
		for _, c := range n.fanout[queue[qi]] {
			if seen[c] != epoch && reach[c] >= 0 {
				seen[c] = epoch
				queue = append(queue, c)
			}
		}
	}
	scr.queue = queue
	return queue[1:] // the stem itself is the flipped source, not an op
}

// emitStemCone compiles the cone the last collectStemCone(g, scr)
// returned, appending its run code to code and its (output, slot) pairs
// to outs. One bucketing pass groups the gates by (level, kind); the
// buckets are then drained in level order, so every operand inside the
// cone sits at a lower level than its consumer and has its slot before
// any op reads it. Cone gates are consumers, so none is a source and
// every kind lies in KBuf..KMux.
func (n *Netlist) emitStemCone(g int32, cone []int32, scr *coneScratch, code, outs []int32) ([]int32, []int32) {
	lo, hi := n.maxLvl, int32(0)
	for _, id := range cone {
		l := n.level[id]
		lo, hi = min(lo, l), max(hi, l)
		b := int(l)*opKinds + int(n.Gates[id].Kind-KBuf)
		scr.buckets[b] = append(scr.buckets[b], id)
	}
	ng := int32(len(n.Gates))
	seen, epoch, slot := scr.seen, scr.epoch, scr.slot
	slot[g] = 0
	next := int32(1)
	for b := int(lo) * opKinds; b < int(hi+1)*opKinds; b++ {
		k := KBuf + Kind(b%opKinds)
		pins := arity(k)
		for ids := scr.buckets[b]; len(ids) > 0; {
			run := ids[:min(len(ids), maxRunLen)]
			ids = ids[len(run):]
			code = append(code, runHeader(k, len(run)))
			for _, id := range run {
				for _, in := range n.Gates[id].In[:pins] {
					if seen[in] == epoch {
						in = ng + slot[in]
					}
					code = append(code, in)
				}
				slot[id] = next
				if scr.isOut[id] {
					outs = append(outs, id, ng+next)
				}
				next++
			}
		}
		scr.buckets[b] = scr.buckets[b][:0]
	}
	if scr.isOut[g] {
		outs = append(outs, g, ng)
	}
	return code, outs
}

// evalStemCode runs compiled cone code (see StemCone) against an
// evaluator's combined good|faulty buffer gf at width w: op i writes
// gf[dst+i*w : dst+(i+1)*w]. It dispatches on kind once per run, then
// loops over the run's ops. It is the portable kernel and the oracle of
// the AVX2 one (evalStemCodeAVX2), which runStemCode picks instead at
// W=16, the auto width of paper-scale streams, on hosts that have it.
func evalStemCode(gf []uint64, code []int32, dst, w int) {
	for pc := 0; pc < len(code); {
		k, n := Kind(code[pc]>>16), int(code[pc]&maxRunLen)
		ops := code[pc+1 : pc+1+n*arity(k)]
		pc += 1 + len(ops)
		switch k {
		case KBuf:
			for _, ai := range ops {
				copy(gf[dst:dst+w], gf[int(ai)*w:])
				dst += w
			}
		case KNot:
			for _, ai := range ops {
				d, a := gf[dst:dst+w:dst+w], gf[int(ai)*w:][:w]
				for j := range d {
					d[j] = ^a[j]
				}
				dst += w
			}
		case KAnd:
			for ; len(ops) >= 2; ops = ops[2:] {
				d, a, b := gf[dst:dst+w:dst+w], gf[int(ops[0])*w:][:w], gf[int(ops[1])*w:][:w]
				for j := range d {
					d[j] = a[j] & b[j]
				}
				dst += w
			}
		case KOr:
			for ; len(ops) >= 2; ops = ops[2:] {
				d, a, b := gf[dst:dst+w:dst+w], gf[int(ops[0])*w:][:w], gf[int(ops[1])*w:][:w]
				for j := range d {
					d[j] = a[j] | b[j]
				}
				dst += w
			}
		case KXor:
			for ; len(ops) >= 2; ops = ops[2:] {
				d, a, b := gf[dst:dst+w:dst+w], gf[int(ops[0])*w:][:w], gf[int(ops[1])*w:][:w]
				for j := range d {
					d[j] = a[j] ^ b[j]
				}
				dst += w
			}
		case KNand:
			for ; len(ops) >= 2; ops = ops[2:] {
				d, a, b := gf[dst:dst+w:dst+w], gf[int(ops[0])*w:][:w], gf[int(ops[1])*w:][:w]
				for j := range d {
					d[j] = ^(a[j] & b[j])
				}
				dst += w
			}
		case KNor:
			for ; len(ops) >= 2; ops = ops[2:] {
				d, a, b := gf[dst:dst+w:dst+w], gf[int(ops[0])*w:][:w], gf[int(ops[1])*w:][:w]
				for j := range d {
					d[j] = ^(a[j] | b[j])
				}
				dst += w
			}
		case KXnor:
			for ; len(ops) >= 2; ops = ops[2:] {
				d, a, b := gf[dst:dst+w:dst+w], gf[int(ops[0])*w:][:w], gf[int(ops[1])*w:][:w]
				for j := range d {
					d[j] = ^(a[j] ^ b[j])
				}
				dst += w
			}
		case KMux:
			for ; len(ops) >= 3; ops = ops[3:] {
				d, a := gf[dst:dst+w:dst+w], gf[int(ops[0])*w:][:w]
				b, c := gf[int(ops[1])*w:][:w], gf[int(ops[2])*w:][:w]
				for j := range d {
					d[j] = a[j]&c[j] | b[j]&^a[j]
				}
				dst += w
			}
		}
	}
}
