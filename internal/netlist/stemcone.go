package netlist

import (
	"sync"
	"sync/atomic"
)

// StemCone is the static downstream cone of one fanout stem, compiled to
// a flat op list in non-decreasing level order (so a single forward pass
// evaluates producers before consumers), plus the primary-output nets the
// stem reaches — including the stem itself when it is an output.
//
// The observability fill flips a stem to the complement of its
// fault-free row across a whole block (64×W patterns). Such a flip
// diverges essentially the entire cone — across hundreds of patterns
// some pattern sensitizes almost every path — so the fill evaluates the
// static cone as one flat loop whose only per-gate work is the gate
// function itself, with no scheduling or divergence tests.
//
// Each op's operand slots are resolved at build time: an operand inside
// the cone (or the stem itself) reads the faulty half of the evaluator's
// combined good|faulty buffer, anything else reads the good half, so no
// op has to ask at run time which copy holds its operand.
//
// Cones are compiled lazily, one stem at a time, the first time an
// evaluator fills that stem's observability (stemCone).
type StemCone struct {
	Ops  []ConeOp // compiled cone in level order
	Outs []int32  // reachable primary-output nets (stem included when an output)
}

// ConeOp is one compiled cone gate: Kind selects the gate function and
// Dst/A/B/C are row slots into the evaluator's combined buffer — slot s
// addresses words s*w .. s*w+w-1, with slots below len(Gates) in the good
// half and slots offset by len(Gates) in the faulty half. Dst always
// points at the faulty half.
type ConeOp struct {
	Dst, A, B, C int32
	Kind         uint8
}

// Compiled cone op kinds, mirroring the combinational gate kinds a cone
// can contain (sources have no input pins, so they never appear in a
// fan-out cone).
const (
	copBuf uint8 = iota
	copNot
	copAnd
	copOr
	copXor
	copNand
	copNor
	copXnor
	copMux
)

// stemConeBudget bounds the total number of cone ops cached per netlist.
// A stem compiled once the budget is spent is not cached: every fill of
// it compiles the cone afresh into the filling evaluator's scratch
// (coneScratch.cone) and runs it from there.
const stemConeBudget = 1 << 23

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
	sc := &scr.cone
	sc.Ops, sc.Outs = n.emitStemCone(g, n.collectStemCone(g, scr), scr, sc.Ops[:0], sc.Outs[:0])
	return sc
}

// coneScratch is an evaluator's reusable working set for compiling stem
// cones, allocated on its first compile.
type coneScratch struct {
	seen    []uint32 // cone membership, stamped with epoch
	epoch   uint32
	isOut   []bool
	queue   []int32
	buckets [][]int32 // cone gates per level, drained by every emit
	cone    StemCone  // the last over-budget stem compiled (see stemCone)
}

// cacheStemCone compiles stem g's cone for the netlist's cache, or
// returns nil when the budget cannot hold it.
func (n *Netlist) cacheStemCone(g int32, scr *coneScratch) *StemCone {
	cone := n.collectStemCone(g, scr)
	if n.stems.budget.Add(-int64(len(cone))) < 0 {
		n.stems.budget.Add(int64(len(cone)))
		return nil
	}
	ops, outs := n.emitStemCone(g, cone, scr, make([]ConeOp, 0, len(cone)), nil)
	return &StemCone{Ops: ops, Outs: outs}
}

// collectStemCone marks stem g's static fan-out cone in scr and returns
// its gates, stem excluded, in breadth-first order. Gates that reach no
// primary output are left out: they can never influence an
// observability row, and their consumers are equally unreachable, so no
// retained gate ever reads a dropped gate's row.
func (n *Netlist) collectStemCone(g int32, scr *coneScratch) []int32 {
	if scr.seen == nil {
		scr.seen = make([]uint32, len(n.Gates))
		scr.isOut = make([]bool, len(n.Gates))
		for _, o := range n.Outputs {
			scr.isOut[o] = true
		}
		scr.buckets = make([][]int32, n.maxLvl+1)
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
// returned in level order, appending its ops to ops and the primary
// outputs it reaches to outs.
func (n *Netlist) emitStemCone(g int32, cone []int32, scr *coneScratch, ops []ConeOp, outs []int32) ([]ConeOp, []int32) {
	for _, id := range cone {
		l := n.level[id]
		scr.buckets[l] = append(scr.buckets[l], id)
	}
	for l := n.level[g] + 1; l < int32(len(scr.buckets)); l++ {
		for _, id := range scr.buckets[l] {
			ops = append(ops, compileConeOp(n, scr.seen, scr.epoch, id))
			if scr.isOut[id] {
				outs = append(outs, id)
			}
		}
		scr.buckets[l] = scr.buckets[l][:0]
	}
	if scr.isOut[g] {
		outs = append(outs, g)
	}
	return ops, outs
}

// compileConeOp resolves gate id into a ConeOp for the stem whose cone
// membership is marked in seen with the given epoch: member operands
// (including the stem) read the faulty half, everything else the good
// half. Operands always sit at strictly lower levels than their consumer,
// so member operands are written before any op reads them.
func compileConeOp(n *Netlist, seen []uint32, epoch uint32, id int32) ConeOp {
	ng := int32(len(n.Gates))
	slot := func(net int32) int32 {
		if seen[net] == epoch {
			return ng + net
		}
		return net
	}
	g := &n.Gates[id]
	op := ConeOp{Dst: ng + id}
	switch g.Kind {
	case KBuf:
		op.Kind, op.A = copBuf, slot(g.In[0])
	case KNot:
		op.Kind, op.A = copNot, slot(g.In[0])
	case KAnd:
		op.Kind, op.A, op.B = copAnd, slot(g.In[0]), slot(g.In[1])
	case KOr:
		op.Kind, op.A, op.B = copOr, slot(g.In[0]), slot(g.In[1])
	case KXor:
		op.Kind, op.A, op.B = copXor, slot(g.In[0]), slot(g.In[1])
	case KNand:
		op.Kind, op.A, op.B = copNand, slot(g.In[0]), slot(g.In[1])
	case KNor:
		op.Kind, op.A, op.B = copNor, slot(g.In[0]), slot(g.In[1])
	case KXnor:
		op.Kind, op.A, op.B = copXnor, slot(g.In[0]), slot(g.In[1])
	case KMux:
		op.Kind = copMux
		op.A, op.B, op.C = slot(g.In[0]), slot(g.In[1]), slot(g.In[2])
	default:
		// Sources have no fan-in and can never be enqueued as a consumer;
		// keep a harmless self-copy so an unexpected kind stays a no-op.
		op.Kind, op.A = copBuf, id
	}
	return op
}

// evalConeOps runs a compiled cone against the evaluator's combined
// good|faulty buffer at width w. evalConeOps16 is the same loop with the
// dominant width fixed so every word loop has a constant trip count and
// no bounds checks.
func evalConeOps(gf []uint64, ops []ConeOp, w int) {
	for i := range ops {
		op := &ops[i]
		dst := gf[int(op.Dst)*w : int(op.Dst)*w+w]
		a := gf[int(op.A)*w:]
		a = a[:len(dst)]
		switch op.Kind {
		case copBuf:
			copy(dst, a)
		case copNot:
			for j := range dst {
				dst[j] = ^a[j]
			}
		case copAnd:
			b := gf[int(op.B)*w:]
			b = b[:len(dst)]
			for j := range dst {
				dst[j] = a[j] & b[j]
			}
		case copOr:
			b := gf[int(op.B)*w:]
			b = b[:len(dst)]
			for j := range dst {
				dst[j] = a[j] | b[j]
			}
		case copXor:
			b := gf[int(op.B)*w:]
			b = b[:len(dst)]
			for j := range dst {
				dst[j] = a[j] ^ b[j]
			}
		case copNand:
			b := gf[int(op.B)*w:]
			b = b[:len(dst)]
			for j := range dst {
				dst[j] = ^(a[j] & b[j])
			}
		case copNor:
			b := gf[int(op.B)*w:]
			b = b[:len(dst)]
			for j := range dst {
				dst[j] = ^(a[j] | b[j])
			}
		case copXnor:
			b := gf[int(op.B)*w:]
			b = b[:len(dst)]
			for j := range dst {
				dst[j] = ^(a[j] ^ b[j])
			}
		case copMux:
			b := gf[int(op.B)*w:]
			b = b[:len(dst)]
			c := gf[int(op.C)*w:]
			c = c[:len(dst)]
			for j := range dst {
				dst[j] = (a[j] & c[j]) | (^a[j] & b[j])
			}
		}
	}
}

func evalConeOps16(gf []uint64, ops []ConeOp) {
	for i := range ops {
		op := &ops[i]
		dst := (*[16]uint64)(gf[int(op.Dst)*16:])
		a := (*[16]uint64)(gf[int(op.A)*16:])
		switch op.Kind {
		case copBuf:
			*dst = *a
		case copNot:
			for j := range dst {
				dst[j] = ^a[j]
			}
		case copAnd:
			b := (*[16]uint64)(gf[int(op.B)*16:])
			for j := range dst {
				dst[j] = a[j] & b[j]
			}
		case copOr:
			b := (*[16]uint64)(gf[int(op.B)*16:])
			for j := range dst {
				dst[j] = a[j] | b[j]
			}
		case copXor:
			b := (*[16]uint64)(gf[int(op.B)*16:])
			for j := range dst {
				dst[j] = a[j] ^ b[j]
			}
		case copNand:
			b := (*[16]uint64)(gf[int(op.B)*16:])
			for j := range dst {
				dst[j] = ^(a[j] & b[j])
			}
		case copNor:
			b := (*[16]uint64)(gf[int(op.B)*16:])
			for j := range dst {
				dst[j] = ^(a[j] | b[j])
			}
		case copXnor:
			b := (*[16]uint64)(gf[int(op.B)*16:])
			for j := range dst {
				dst[j] = ^(a[j] ^ b[j])
			}
		case copMux:
			b := (*[16]uint64)(gf[int(op.B)*16:])
			c := (*[16]uint64)(gf[int(op.C)*16:])
			for j := range dst {
				dst[j] = (a[j] & c[j]) | (^a[j] & b[j])
			}
		}
	}
}
