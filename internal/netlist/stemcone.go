package netlist

import (
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
func (n *Netlist) compileStemCone(g int32, scr *coneScratch) *StemCone {
	sc := &scr.cone
	sc.Code, sc.Outs = n.emitStemCone(g, n.collectStemCone(g, scr), scr, sc.Code[:0], sc.Outs[:0])
	return sc
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
// loops over the run's ops. evalStemCode16 is the same kernel at W=16,
// the auto width of paper-scale streams, with every word loop written
// out word by word; other widths run plain word loops.
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

func evalStemCode16(gf []uint64, code []int32, dst int) {
	for pc := 0; pc < len(code); {
		k, n := Kind(code[pc]>>16), int(code[pc]&maxRunLen)
		ops := code[pc+1 : pc+1+n*arity(k)]
		pc += 1 + len(ops)
		switch k {
		case KBuf:
			for _, ai := range ops {
				*(*[16]uint64)(gf[dst:]) = *(*[16]uint64)(gf[int(ai)*16:])
				dst += 16
			}
		case KNot:
			for _, ai := range ops {
				a, d := (*[16]uint64)(gf[int(ai)*16:]), (*[16]uint64)(gf[dst:])
				d[0], d[1], d[2], d[3] = ^a[0], ^a[1], ^a[2], ^a[3]
				d[4], d[5], d[6], d[7] = ^a[4], ^a[5], ^a[6], ^a[7]
				d[8], d[9], d[10], d[11] = ^a[8], ^a[9], ^a[10], ^a[11]
				d[12], d[13], d[14], d[15] = ^a[12], ^a[13], ^a[14], ^a[15]
				dst += 16
			}
		case KAnd:
			for ; len(ops) >= 2; ops = ops[2:] {
				a, b := (*[16]uint64)(gf[int(ops[0])*16:]), (*[16]uint64)(gf[int(ops[1])*16:])
				d := (*[16]uint64)(gf[dst:])
				d[0], d[1], d[2], d[3] = a[0]&b[0], a[1]&b[1], a[2]&b[2], a[3]&b[3]
				d[4], d[5], d[6], d[7] = a[4]&b[4], a[5]&b[5], a[6]&b[6], a[7]&b[7]
				d[8], d[9], d[10], d[11] = a[8]&b[8], a[9]&b[9], a[10]&b[10], a[11]&b[11]
				d[12], d[13], d[14], d[15] = a[12]&b[12], a[13]&b[13], a[14]&b[14], a[15]&b[15]
				dst += 16
			}
		case KOr:
			for ; len(ops) >= 2; ops = ops[2:] {
				a, b := (*[16]uint64)(gf[int(ops[0])*16:]), (*[16]uint64)(gf[int(ops[1])*16:])
				d := (*[16]uint64)(gf[dst:])
				d[0], d[1], d[2], d[3] = a[0]|b[0], a[1]|b[1], a[2]|b[2], a[3]|b[3]
				d[4], d[5], d[6], d[7] = a[4]|b[4], a[5]|b[5], a[6]|b[6], a[7]|b[7]
				d[8], d[9], d[10], d[11] = a[8]|b[8], a[9]|b[9], a[10]|b[10], a[11]|b[11]
				d[12], d[13], d[14], d[15] = a[12]|b[12], a[13]|b[13], a[14]|b[14], a[15]|b[15]
				dst += 16
			}
		case KXor:
			for ; len(ops) >= 2; ops = ops[2:] {
				a, b := (*[16]uint64)(gf[int(ops[0])*16:]), (*[16]uint64)(gf[int(ops[1])*16:])
				d := (*[16]uint64)(gf[dst:])
				d[0], d[1], d[2], d[3] = a[0]^b[0], a[1]^b[1], a[2]^b[2], a[3]^b[3]
				d[4], d[5], d[6], d[7] = a[4]^b[4], a[5]^b[5], a[6]^b[6], a[7]^b[7]
				d[8], d[9], d[10], d[11] = a[8]^b[8], a[9]^b[9], a[10]^b[10], a[11]^b[11]
				d[12], d[13], d[14], d[15] = a[12]^b[12], a[13]^b[13], a[14]^b[14], a[15]^b[15]
				dst += 16
			}
		case KNand:
			for ; len(ops) >= 2; ops = ops[2:] {
				a, b := (*[16]uint64)(gf[int(ops[0])*16:]), (*[16]uint64)(gf[int(ops[1])*16:])
				d := (*[16]uint64)(gf[dst:])
				d[0], d[1], d[2], d[3] = ^(a[0] & b[0]), ^(a[1] & b[1]), ^(a[2] & b[2]), ^(a[3] & b[3])
				d[4], d[5], d[6], d[7] = ^(a[4] & b[4]), ^(a[5] & b[5]), ^(a[6] & b[6]), ^(a[7] & b[7])
				d[8], d[9], d[10], d[11] = ^(a[8] & b[8]), ^(a[9] & b[9]), ^(a[10] & b[10]), ^(a[11] & b[11])
				d[12], d[13], d[14], d[15] = ^(a[12] & b[12]), ^(a[13] & b[13]), ^(a[14] & b[14]), ^(a[15] & b[15])
				dst += 16
			}
		case KNor:
			for ; len(ops) >= 2; ops = ops[2:] {
				a, b := (*[16]uint64)(gf[int(ops[0])*16:]), (*[16]uint64)(gf[int(ops[1])*16:])
				d := (*[16]uint64)(gf[dst:])
				d[0], d[1], d[2], d[3] = ^(a[0] | b[0]), ^(a[1] | b[1]), ^(a[2] | b[2]), ^(a[3] | b[3])
				d[4], d[5], d[6], d[7] = ^(a[4] | b[4]), ^(a[5] | b[5]), ^(a[6] | b[6]), ^(a[7] | b[7])
				d[8], d[9], d[10], d[11] = ^(a[8] | b[8]), ^(a[9] | b[9]), ^(a[10] | b[10]), ^(a[11] | b[11])
				d[12], d[13], d[14], d[15] = ^(a[12] | b[12]), ^(a[13] | b[13]), ^(a[14] | b[14]), ^(a[15] | b[15])
				dst += 16
			}
		case KXnor:
			for ; len(ops) >= 2; ops = ops[2:] {
				a, b := (*[16]uint64)(gf[int(ops[0])*16:]), (*[16]uint64)(gf[int(ops[1])*16:])
				d := (*[16]uint64)(gf[dst:])
				d[0], d[1], d[2], d[3] = ^(a[0] ^ b[0]), ^(a[1] ^ b[1]), ^(a[2] ^ b[2]), ^(a[3] ^ b[3])
				d[4], d[5], d[6], d[7] = ^(a[4] ^ b[4]), ^(a[5] ^ b[5]), ^(a[6] ^ b[6]), ^(a[7] ^ b[7])
				d[8], d[9], d[10], d[11] = ^(a[8] ^ b[8]), ^(a[9] ^ b[9]), ^(a[10] ^ b[10]), ^(a[11] ^ b[11])
				d[12], d[13], d[14], d[15] = ^(a[12] ^ b[12]), ^(a[13] ^ b[13]), ^(a[14] ^ b[14]), ^(a[15] ^ b[15])
				dst += 16
			}
		case KMux:
			for ; len(ops) >= 3; ops = ops[3:] {
				a, b := (*[16]uint64)(gf[int(ops[0])*16:]), (*[16]uint64)(gf[int(ops[1])*16:])
				c, d := (*[16]uint64)(gf[int(ops[2])*16:]), (*[16]uint64)(gf[dst:])
				d[0], d[1] = a[0]&c[0]|b[0]&^a[0], a[1]&c[1]|b[1]&^a[1]
				d[2], d[3] = a[2]&c[2]|b[2]&^a[2], a[3]&c[3]|b[3]&^a[3]
				d[4], d[5] = a[4]&c[4]|b[4]&^a[4], a[5]&c[5]|b[5]&^a[5]
				d[6], d[7] = a[6]&c[6]|b[6]&^a[6], a[7]&c[7]|b[7]&^a[7]
				d[8], d[9] = a[8]&c[8]|b[8]&^a[8], a[9]&c[9]|b[9]&^a[9]
				d[10], d[11] = a[10]&c[10]|b[10]&^a[10], a[11]&c[11]|b[11]&^a[11]
				d[12], d[13] = a[12]&c[12]|b[12]&^a[12], a[13]&c[13]|b[13]&^a[13]
				d[14], d[15] = a[14]&c[14]|b[14]&^a[14], a[15]&c[15]|b[15]&^a[15]
				dst += 16
			}

		}
	}
}
