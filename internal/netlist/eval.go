package netlist

import (
	"errors"
	"fmt"
)

// FaultSite identifies a single stuck-at fault: the output (Pin == -1) or
// an input pin of a gate, stuck at 1 (SA1) or 0.
type FaultSite struct {
	Gate int32
	Pin  int8 // -1 for the output net, 0..2 for input pins
	SA1  bool
}

// String renders the fault in the usual pin/polarity notation.
func (f FaultSite) String() string {
	v := 0
	if f.SA1 {
		v = 1
	}
	if f.Pin < 0 {
		return fmt.Sprintf("g%d.out/sa%d", f.Gate, v)
	}
	return fmt.Sprintf("g%d.in%d/sa%d", f.Gate, f.Pin, v)
}

// Evaluator computes blocks of 64×W patterns at once over a Netlist (one
// pattern per bit of W machine words per net) and evaluates single-
// stuck-at faulty circuits by propagating differences through the
// fault's fan-out cone only. The fault-free sweep runs over the
// netlist's compiled SoA plan: per-level, per-kind tight loops with no
// per-gate dispatch in the inner body.
//
// W (BlockWords) is fixed at construction; net n's good values occupy
// good[n*W : (n+1)*W], pattern p at word p/64, bit p%64 — bit order is
// stream order, so first detections are identical at every width. The
// fault engine's per-fault work is word-granular at every width, W == 1
// included: SiteOpFirstActive and SiteOpDetectFrom scan a block's words
// in order against the memoized observability row (ObsW), so a caller
// stops paying the moment a detection (or a proven zero) appears — most
// faults die in their first active word, and the block's later words are
// only ever touched for the survivors. SiteDelta, FaultDetect,
// FaultDetectDelta, Output and Value are single-word conveniences for
// the reference engine, ATPG and tests; they read word 0 of the block,
// which is all of it on a width-1 evaluator.
type Evaluator struct {
	nl   *Netlist
	w    int // words per net value; 64*w patterns per block
	plan *EvalPlan
	gf   []uint64 // combined good|faulty backing: good = gf[:ng*w], faulty = gf[ng*w:]
	good []uint64 // len(Gates)*w, stride w

	// Faulty-cone scratch, reset lazily via epoch stamps. faulty is
	// stride-w: a cone walk (walkCone) writes whole rows, so the
	// scheduling cost amortizes over all W words.
	faulty []uint64 // stride w
	stamp  []uint32
	sched  []uint32
	epoch  uint32
	bucket [][]int32
	lvls   []int32

	// Per-block observability memo (see ObsW), one W-word row per
	// net, invalidated by Run via its own epoch.
	obsVal   []uint64 // stride w
	obsStamp []uint32
	obsEpoch uint32
	obsChain []int32
	isOut    []bool

	// Primary-output nets marked in the current faulty epoch; lets the
	// detect scan visit only touched outputs instead of all of them.
	touchedOuts []int32

	rowBuf []uint64 // one-row scratch: sensFlipW's flipped input, FaultDetectDelta's detection

	cones coneScratch // stem-cone compile scratch; see stemCone
}

// ErrSequential reports that a combinational-only entry point was handed
// a netlist with flip-flops.
var ErrSequential = errors.New("netlist: sequential netlist; use NewSeqEvaluator")

// NewEvaluator creates a width-1 (64 patterns per block) evaluator for a
// combinational netlist. It returns ErrSequential on netlists with
// flip-flops — use NewSeqEvaluator for those.
func NewEvaluator(nl *Netlist) (*Evaluator, error) {
	return NewEvaluatorWide(nl, 1)
}

// MaxBlockWords bounds the evaluator block width: 16 words sweep 1024
// patterns per fault-free evaluation, the widest batch the fault
// engine's auto-tuner selects.
const MaxBlockWords = 16

// NewEvaluatorWide creates an evaluator computing w words (64×w
// patterns) per net per block. w must be in [1, MaxBlockWords].
func NewEvaluatorWide(nl *Netlist, w int) (*Evaluator, error) {
	if nl.NumDFFs() > 0 {
		return nil, fmt.Errorf("netlist: NewEvaluator on %s: %w", nl.Name, ErrSequential)
	}
	if w < 1 || w > MaxBlockWords {
		return nil, fmt.Errorf("netlist: block width %d words outside [1, %d]", w, MaxBlockWords)
	}
	ng := len(nl.Gates)
	// good and faulty share one backing array so compiled stem-cone ops
	// can address either copy as a slot into a single buffer (stemcone.go).
	gf := make([]uint64, 2*ng*w)
	e := &Evaluator{
		nl:       nl,
		w:        w,
		plan:     nl.Plan(),
		gf:       gf,
		good:     gf[: ng*w : ng*w],
		faulty:   gf[ng*w:],
		stamp:    make([]uint32, ng),
		sched:    make([]uint32, ng),
		bucket:   make([][]int32, nl.maxLvl+1),
		obsVal:   make([]uint64, ng*w),
		obsStamp: make([]uint32, ng),
		isOut:    make([]bool, ng),
		rowBuf:   make([]uint64, w),
	}
	for _, o := range nl.Outputs {
		e.isOut[o] = true
	}
	// Constants never change: load their rows once instead of per Run.
	for id, g := range nl.Gates {
		if g.Kind == KConst1 {
			row := e.row(e.good, int32(id))
			for j := range row {
				row[j] = ^uint64(0)
			}
		}
	}
	return e, nil
}

// AcquireEvaluator returns an evaluator of the given block width for this
// netlist, recycled from the netlist's pool when one is available and
// freshly built otherwise. Evaluator scratch is epoch-guarded, so a
// recycled evaluator behaves exactly like a fresh one; pass it back with
// ReleaseEvaluator when done to keep the warm arrays circulating.
func (n *Netlist) AcquireEvaluator(w int) (*Evaluator, error) {
	if w >= 1 && w <= MaxBlockWords {
		if v := n.evPool[w-1].Get(); v != nil {
			return v.(*Evaluator), nil
		}
	}
	return NewEvaluatorWide(n, w)
}

// ReleaseEvaluator returns an evaluator to its netlist's pool. Evaluators
// of other netlists (or nil) are ignored. The caller must not use the
// evaluator after releasing it.
func (n *Netlist) ReleaseEvaluator(e *Evaluator) {
	if e == nil || e.nl != n {
		return
	}
	n.evPool[e.w-1].Put(e)
}

// Netlist returns the circuit under evaluation.
func (e *Evaluator) Netlist() *Netlist { return e.nl }

// BlockWords returns the evaluator's block width in 64-pattern words.
func (e *Evaluator) BlockWords() int { return e.w }

// row returns net's w-word value row inside one of the stride-w arrays.
func (e *Evaluator) row(a []uint64, net int32) []uint64 {
	i := int(net) * e.w
	return a[i : i+e.w : i+e.w]
}

func gateFn(k Kind, a, b, s uint64) uint64 {
	switch k {
	case KBuf:
		return a
	case KNot:
		return ^a
	case KAnd:
		return a & b
	case KOr:
		return a | b
	case KXor:
		return a ^ b
	case KNand:
		return ^(a & b)
	case KNor:
		return ^(a | b)
	case KXnor:
		return ^(a ^ b)
	case KMux:
		// In[0]=sel (passed as a), In[1]=lo (b), In[2]=hi (s).
		return (a & s) | (^a & b)
	case KConst1:
		return ^uint64(0)
	}
	return 0 // KConst0, KInput handled by caller
}

// Run evaluates the fault-free circuit for one block of patterns.
// inputs holds W words per primary input, input-major: input i occupies
// inputs[i*W : (i+1)*W], pattern p at word p/64 bit p%64 (with W == 1
// this is the classic one-word-per-input layout). It returns an error
// (leaving the previous evaluation intact) when the input length does
// not match the circuit and block width.
func (e *Evaluator) Run(inputs []uint64) error {
	if len(inputs) != len(e.nl.Inputs)*e.w {
		return fmt.Errorf("netlist: Run got %d input words, circuit %s has %d inputs × %d block words",
			len(inputs), e.nl.Name, len(e.nl.Inputs), e.w)
	}
	e.obsEpoch++
	if e.obsEpoch == 0 { // uint32 wrap: drop every memoized mask for real
		for i := range e.obsStamp {
			e.obsStamp[i] = 0
		}
		e.obsEpoch = 1
	}
	if e.w == 1 {
		for i, net := range e.nl.Inputs {
			e.good[net] = inputs[i]
		}
		e.runScalar()
	} else {
		w := e.w
		for i, net := range e.nl.Inputs {
			copy(e.row(e.good, net), inputs[i*w:(i+1)*w])
		}
		e.runWide()
	}
	return nil
}

// runScalar sweeps the compiled plan at W == 1: one kind dispatch per
// run, then a tight loop with direct good-array indexing.
func (e *Evaluator) runScalar() {
	p := e.plan
	good := e.good
	for ri := range p.runs {
		r := &p.runs[ri]
		out := p.out[r.Start:r.End]
		in0 := p.in0[r.Start:r.End]
		in1 := p.in1[r.Start:r.End]
		in2 := p.in2[r.Start:r.End]
		switch r.Kind {
		case KBuf:
			for i, o := range out {
				good[o] = good[in0[i]]
			}
		case KNot:
			for i, o := range out {
				good[o] = ^good[in0[i]]
			}
		case KAnd:
			for i, o := range out {
				good[o] = good[in0[i]] & good[in1[i]]
			}
		case KOr:
			for i, o := range out {
				good[o] = good[in0[i]] | good[in1[i]]
			}
		case KXor:
			for i, o := range out {
				good[o] = good[in0[i]] ^ good[in1[i]]
			}
		case KNand:
			for i, o := range out {
				good[o] = ^(good[in0[i]] & good[in1[i]])
			}
		case KNor:
			for i, o := range out {
				good[o] = ^(good[in0[i]] | good[in1[i]])
			}
		case KXnor:
			for i, o := range out {
				good[o] = ^(good[in0[i]] ^ good[in1[i]])
			}
		case KMux:
			for i, o := range out {
				s := good[in0[i]]
				good[o] = (s & good[in2[i]]) | (^s & good[in1[i]])
			}
		}
	}
}

// runWide sweeps the compiled plan at W > 1: per run, per gate, a
// branch-free loop over the W words of the operand rows.
func (e *Evaluator) runWide() {
	p := e.plan
	w := e.w
	good := e.good
	for ri := range p.runs {
		r := &p.runs[ri]
		out := p.out[r.Start:r.End]
		in0 := p.in0[r.Start:r.End]
		in1 := p.in1[r.Start:r.End]
		in2 := p.in2[r.Start:r.End]
		switch r.Kind {
		case KBuf:
			for i, o := range out {
				oi, ai := int(o)*w, int(in0[i])*w
				copy(good[oi:oi+w], good[ai:ai+w])
			}
		case KNot:
			for i, o := range out {
				oi, ai := int(o)*w, int(in0[i])*w
				ov, av := good[oi:oi+w:oi+w], good[ai:ai+w:ai+w]
				for j := range ov {
					ov[j] = ^av[j]
				}
			}
		case KAnd:
			for i, o := range out {
				oi, ai, bi := int(o)*w, int(in0[i])*w, int(in1[i])*w
				ov, av, bv := good[oi:oi+w:oi+w], good[ai:ai+w:ai+w], good[bi:bi+w:bi+w]
				for j := range ov {
					ov[j] = av[j] & bv[j]
				}
			}
		case KOr:
			for i, o := range out {
				oi, ai, bi := int(o)*w, int(in0[i])*w, int(in1[i])*w
				ov, av, bv := good[oi:oi+w:oi+w], good[ai:ai+w:ai+w], good[bi:bi+w:bi+w]
				for j := range ov {
					ov[j] = av[j] | bv[j]
				}
			}
		case KXor:
			for i, o := range out {
				oi, ai, bi := int(o)*w, int(in0[i])*w, int(in1[i])*w
				ov, av, bv := good[oi:oi+w:oi+w], good[ai:ai+w:ai+w], good[bi:bi+w:bi+w]
				for j := range ov {
					ov[j] = av[j] ^ bv[j]
				}
			}
		case KNand:
			for i, o := range out {
				oi, ai, bi := int(o)*w, int(in0[i])*w, int(in1[i])*w
				ov, av, bv := good[oi:oi+w:oi+w], good[ai:ai+w:ai+w], good[bi:bi+w:bi+w]
				for j := range ov {
					ov[j] = ^(av[j] & bv[j])
				}
			}
		case KNor:
			for i, o := range out {
				oi, ai, bi := int(o)*w, int(in0[i])*w, int(in1[i])*w
				ov, av, bv := good[oi:oi+w:oi+w], good[ai:ai+w:ai+w], good[bi:bi+w:bi+w]
				for j := range ov {
					ov[j] = ^(av[j] | bv[j])
				}
			}
		case KXnor:
			for i, o := range out {
				oi, ai, bi := int(o)*w, int(in0[i])*w, int(in1[i])*w
				ov, av, bv := good[oi:oi+w:oi+w], good[ai:ai+w:ai+w], good[bi:bi+w:bi+w]
				for j := range ov {
					ov[j] = ^(av[j] ^ bv[j])
				}
			}
		case KMux:
			for i, o := range out {
				oi, si, li, hi := int(o)*w, int(in0[i])*w, int(in1[i])*w, int(in2[i])*w
				ov := good[oi : oi+w : oi+w]
				sv, lv, hv := good[si:si+w:si+w], good[li:li+w:li+w], good[hi:hi+w:hi+w]
				for j := range ov {
					ov[j] = (sv[j] & hv[j]) | (^sv[j] & lv[j])
				}
			}
		}
	}
}

// Output returns word 0 of primary output i's good value row after Run
// (the whole row at W == 1; see OutputW).
func (e *Evaluator) Output(i int) uint64 { return e.good[int(e.nl.Outputs[i])*e.w] }

// OutputW returns the W-word good value row of primary output i after
// Run. The returned slice must not be mutated.
func (e *Evaluator) OutputW(i int) []uint64 { return e.row(e.good, e.nl.Outputs[i]) }

// Value returns word 0 of an arbitrary net's good value row after Run
// (the whole row at W == 1; see ValueW).
func (e *Evaluator) Value(net int32) uint64 { return e.good[int(net)*e.w] }

// ValueW returns the W-word good value row of an arbitrary net after
// Run. The returned slice must not be mutated.
func (e *Evaluator) ValueW(net int32) []uint64 { return e.row(e.good, net) }

// markTouch stamps a net as faulty-valued this epoch (first time only)
// and schedules its consumers; the caller stores the row itself.
func (e *Evaluator) markTouch(net int32) {
	if e.stamp[net] == e.epoch {
		return
	}
	e.stamp[net] = e.epoch
	if e.isOut[net] {
		e.touchedOuts = append(e.touchedOuts, net)
	}
	for _, c := range e.nl.fanout[net] {
		if e.sched[c] != e.epoch {
			e.sched[c] = e.epoch
			l := e.nl.level[c]
			if len(e.bucket[l]) == 0 {
				e.pushLvl(l)
			}
			e.bucket[l] = append(e.bucket[l], c)
		}
	}
}

// faultyRow returns net's current W-word value row: its faulty row when
// marked this epoch, its fault-free row otherwise.
func (e *Evaluator) faultyRow(net int32) []uint64 {
	if e.stamp[net] == e.epoch {
		return e.row(e.faulty, net)
	}
	return e.row(e.good, net)
}

// gateFnW is gateFn over W-word rows. rows[p] is input pin p's value
// row; dst must not alias any of them.
func gateFnW(k Kind, rows [3][]uint64, dst []uint64) {
	a, b, s := rows[0], rows[1], rows[2]
	switch k {
	case KBuf:
		copy(dst, a)
	case KNot:
		for j := range dst {
			dst[j] = ^a[j]
		}
	case KAnd:
		for j := range dst {
			dst[j] = a[j] & b[j]
		}
	case KOr:
		for j := range dst {
			dst[j] = a[j] | b[j]
		}
	case KXor:
		for j := range dst {
			dst[j] = a[j] ^ b[j]
		}
	case KNand:
		for j := range dst {
			dst[j] = ^(a[j] & b[j])
		}
	case KNor:
		for j := range dst {
			dst[j] = ^(a[j] | b[j])
		}
	case KXnor:
		for j := range dst {
			dst[j] = ^(a[j] ^ b[j])
		}
	case KMux:
		for j := range dst {
			dst[j] = (a[j] & s[j]) | (^a[j] & b[j])
		}
	}
}

// evalFaultyW computes gate id's W-word row under the current faulty
// values into dst, returning the OR of its per-word differences from the
// gate's fault-free row grow (non-zero iff the gate diverged). dst may be
// the gate's own faulty row: a combinational gate never feeds itself, so
// no operand row aliases it. The kind switch fetches exactly the operand
// rows each kind needs and the divergence test rides the same pass that
// writes dst — this is the innermost call of every wide cone propagation,
// and a separate compare loop would re-read both rows.
func (e *Evaluator) evalFaultyW(id int32, dst, grow []uint64) uint64 {
	g := &e.nl.Gates[id]
	var d uint64
	switch g.Kind {
	case KBuf:
		a := e.faultyRow(g.In[0])
		for j := range dst {
			dst[j] = a[j]
			d |= a[j] ^ grow[j]
		}
	case KNot:
		a := e.faultyRow(g.In[0])
		for j := range dst {
			v := ^a[j]
			dst[j] = v
			d |= v ^ grow[j]
		}
	case KAnd:
		a, b := e.faultyRow(g.In[0]), e.faultyRow(g.In[1])
		for j := range dst {
			v := a[j] & b[j]
			dst[j] = v
			d |= v ^ grow[j]
		}
	case KOr:
		a, b := e.faultyRow(g.In[0]), e.faultyRow(g.In[1])
		for j := range dst {
			v := a[j] | b[j]
			dst[j] = v
			d |= v ^ grow[j]
		}
	case KXor:
		a, b := e.faultyRow(g.In[0]), e.faultyRow(g.In[1])
		for j := range dst {
			v := a[j] ^ b[j]
			dst[j] = v
			d |= v ^ grow[j]
		}
	case KNand:
		a, b := e.faultyRow(g.In[0]), e.faultyRow(g.In[1])
		for j := range dst {
			v := ^(a[j] & b[j])
			dst[j] = v
			d |= v ^ grow[j]
		}
	case KNor:
		a, b := e.faultyRow(g.In[0]), e.faultyRow(g.In[1])
		for j := range dst {
			v := ^(a[j] | b[j])
			dst[j] = v
			d |= v ^ grow[j]
		}
	case KXnor:
		a, b := e.faultyRow(g.In[0]), e.faultyRow(g.In[1])
		for j := range dst {
			v := ^(a[j] ^ b[j])
			dst[j] = v
			d |= v ^ grow[j]
		}
	case KMux:
		s, l, h := e.faultyRow(g.In[0]), e.faultyRow(g.In[1]), e.faultyRow(g.In[2])
		for j := range dst {
			v := (s[j] & h[j]) | (^s[j] & l[j])
			dst[j] = v
			d |= v ^ grow[j]
		}
	default: // sources keep their value
		a := e.faultyRow(id)
		for j := range dst {
			dst[j] = a[j]
			d |= a[j] ^ grow[j]
		}
	}
	return d
}

// SiteDelta returns the packed mask of patterns (word 0 of the block) on
// which the stuck-at fault's site output differs from the fault-free
// value of the last Run — the local activation of the fault. Gate
// functions are bitwise, so a bit that is zero here stays zero on every
// downstream net: SiteDelta == 0 proves FaultDetect would return 0
// without propagating anything, and the detection mask is always a
// bitwise subset of the site delta. It evaluates the gate directly, not
// through CompileSiteOp, so it stays an independent check of the
// compiled ops the fault engine runs.
func (e *Evaluator) SiteDelta(f FaultSite) uint64 {
	var sa uint64
	if f.SA1 {
		sa = ^uint64(0)
	}
	w := e.w
	if f.Pin < 0 {
		return sa ^ e.good[int(f.Gate)*w]
	}
	// Evaluate the gate under good inputs with the faulty pin forced,
	// reading good rows only: faulty rows are stale outside a walk.
	g := &e.nl.Gates[f.Gate]
	var v [3]uint64
	for p := 0; p < g.NumIn(); p++ {
		if int8(p) == f.Pin {
			v[p] = sa
		} else {
			v[p] = e.good[int(g.In[p])*w]
		}
	}
	return gateFn(g.Kind, v[0], v[1], v[2]) ^ e.good[int(f.Gate)*w]
}

// SiteOpKind enumerates the primitive activation functions a compiled
// fault site reduces to (see CompileSiteOp).
type SiteOpKind uint8

const (
	SopBuf     SiteOpKind = iota // delta = good[A]
	SopNot                       // delta = ^good[A]
	SopXor                       // delta = good[A] ^ good[B]
	SopXnor                      // delta = ^(good[A] ^ good[B])
	SopAndXor                    // delta = (good[A] & good[B]) ^ good[C]
	SopAndnXor                   // delta = (^good[A] & good[B]) ^ good[C]
	SopOrXor                     // delta = (good[A] | good[B]) ^ good[C]
	SopOrnXor                    // delta = (^good[A] | good[B]) ^ good[C]
)

// SiteOp is a fault site's activation function compiled to a primitive
// over fault-free net values: evaluating the site's gate with the stuck
// pin forced, then XOR-ing with the fault-free output, algebraically
// simplifies against the constant — an AND with a pin stuck at 0 is
// constant 0, stuck at 1 passes the other input through, and so on. The
// result is one to three loads and a couple of ALU ops per word instead
// of a gate-kind dispatch with a forced-operand loop, which matters
// because the activation pre-screen runs for every fault×word visit of
// the simulation inner loop.
type SiteOp struct {
	A, B, C int32
	Op      SiteOpKind
}

// CompileSiteOp compiles a fault site against its netlist. It must only
// be called with sites that are valid for nl (the fault enumerator's
// output); out-of-range sites panic, exactly as SiteDelta would.
func CompileSiteOp(nl *Netlist, f FaultSite) SiteOp {
	g := f.Gate
	cv := func(one bool) SiteOp { // site output forced to a constant
		if one {
			return SiteOp{Op: SopNot, A: g}
		}
		return SiteOp{Op: SopBuf, A: g}
	}
	if f.Pin < 0 {
		return cv(f.SA1) // delta = sa ^ good[g]
	}
	gt := &nl.Gates[g]
	in := gt.In
	pass := func(src int32, inv bool) SiteOp { // site output = (^)good[src]
		if inv {
			return SiteOp{Op: SopXnor, A: src, B: g}
		}
		return SiteOp{Op: SopXor, A: src, B: g}
	}
	other := int32(-1)
	if gt.NumIn() == 2 {
		other = in[1-f.Pin]
	}
	switch gt.Kind {
	case KBuf:
		return cv(f.SA1) // forced input passes straight through
	case KNot:
		return cv(!f.SA1)
	case KAnd:
		if !f.SA1 {
			return cv(false)
		}
		return pass(other, false)
	case KOr:
		if f.SA1 {
			return cv(true)
		}
		return pass(other, false)
	case KNand:
		if !f.SA1 {
			return cv(true)
		}
		return pass(other, true)
	case KNor:
		if f.SA1 {
			return cv(false)
		}
		return pass(other, true)
	case KXor:
		return pass(other, f.SA1)
	case KXnor:
		return pass(other, !f.SA1)
	case KMux:
		sel, lo, hi := in[0], in[1], in[2]
		switch f.Pin {
		case 0: // forced select picks one data input
			if f.SA1 {
				return pass(hi, false)
			}
			return pass(lo, false)
		case 1: // lo forced: sa0 → sel&hi, sa1 → ^sel|hi
			if f.SA1 {
				return SiteOp{Op: SopOrnXor, A: sel, B: hi, C: g}
			}
			return SiteOp{Op: SopAndXor, A: sel, B: hi, C: g}
		default: // hi forced: sa0 → ^sel&lo, sa1 → sel|lo
			if f.SA1 {
				return SiteOp{Op: SopOrXor, A: sel, B: lo, C: g}
			}
			return SiteOp{Op: SopAndnXor, A: sel, B: lo, C: g}
		}
	}
	// Pin faults cannot exist on source gates (no input pins); fall back
	// to the constant form so a malformed site still yields SiteDelta's
	// answer for an un-evaluated source (good[g] itself).
	return cv(f.SA1)
}

// SiteOpFirstActive scans words 0..words-1 of the current block for the
// first word where the compiled site op's activation, masked by the
// block's valid-pattern mask, is non-zero, and returns its index and
// masked value (or -1, 0 when the site never activates — the activation
// pre-screen outcome). The op switch is hoisted out of the word loop, so
// the common all-zero scan runs as one tight loop per site shape.
func (e *Evaluator) SiteOpFirstActive(op SiteOp, mask []uint64, words int) (int, uint64) {
	w := e.w
	good := e.good
	switch op.Op {
	case SopBuf:
		a := int(op.A) * w
		for j := 0; j < words; j++ {
			if d := good[a+j] & mask[j]; d != 0 {
				return j, d
			}
		}
	case SopNot:
		a := int(op.A) * w
		for j := 0; j < words; j++ {
			if d := ^good[a+j] & mask[j]; d != 0 {
				return j, d
			}
		}
	case SopXor:
		a, b := int(op.A)*w, int(op.B)*w
		for j := 0; j < words; j++ {
			if d := (good[a+j] ^ good[b+j]) & mask[j]; d != 0 {
				return j, d
			}
		}
	case SopXnor:
		a, b := int(op.A)*w, int(op.B)*w
		for j := 0; j < words; j++ {
			if d := ^(good[a+j] ^ good[b+j]) & mask[j]; d != 0 {
				return j, d
			}
		}
	case SopAndXor:
		a, b, c := int(op.A)*w, int(op.B)*w, int(op.C)*w
		for j := 0; j < words; j++ {
			if d := (good[a+j]&good[b+j] ^ good[c+j]) & mask[j]; d != 0 {
				return j, d
			}
		}
	case SopAndnXor:
		a, b, c := int(op.A)*w, int(op.B)*w, int(op.C)*w
		for j := 0; j < words; j++ {
			if d := (^good[a+j]&good[b+j] ^ good[c+j]) & mask[j]; d != 0 {
				return j, d
			}
		}
	case SopOrXor:
		a, b, c := int(op.A)*w, int(op.B)*w, int(op.C)*w
		for j := 0; j < words; j++ {
			if d := ((good[a+j] | good[b+j]) ^ good[c+j]) & mask[j]; d != 0 {
				return j, d
			}
		}
	default: // SopOrnXor
		a, b, c := int(op.A)*w, int(op.B)*w, int(op.C)*w
		for j := 0; j < words; j++ {
			if d := ((^good[a+j] | good[b+j]) ^ good[c+j]) & mask[j]; d != 0 {
				return j, d
			}
		}
	}
	return -1, 0
}

// SiteOpDetectFrom scans words from..words-1 for the first word where the
// compiled site op's activation, masked by the block's valid-pattern mask
// AND the site gate's observability row, is non-zero — the detection scan
// that follows a successful activation pre-screen. Like SiteOpFirstActive
// the op switch is hoisted out of the word loop, so the scan decodes the
// op once instead of once per word.
func (e *Evaluator) SiteOpDetectFrom(op SiteOp, mask, obs []uint64, from, words int) (int, uint64) {
	w := e.w
	good := e.good
	switch op.Op {
	case SopBuf:
		a := int(op.A) * w
		for j := from; j < words; j++ {
			if d := good[a+j] & mask[j] & obs[j]; d != 0 {
				return j, d
			}
		}
	case SopNot:
		a := int(op.A) * w
		for j := from; j < words; j++ {
			if d := ^good[a+j] & mask[j] & obs[j]; d != 0 {
				return j, d
			}
		}
	case SopXor:
		a, b := int(op.A)*w, int(op.B)*w
		for j := from; j < words; j++ {
			if d := (good[a+j] ^ good[b+j]) & mask[j] & obs[j]; d != 0 {
				return j, d
			}
		}
	case SopXnor:
		a, b := int(op.A)*w, int(op.B)*w
		for j := from; j < words; j++ {
			if d := ^(good[a+j] ^ good[b+j]) & mask[j] & obs[j]; d != 0 {
				return j, d
			}
		}
	case SopAndXor:
		a, b, c := int(op.A)*w, int(op.B)*w, int(op.C)*w
		for j := from; j < words; j++ {
			if d := (good[a+j]&good[b+j] ^ good[c+j]) & mask[j] & obs[j]; d != 0 {
				return j, d
			}
		}
	case SopAndnXor:
		a, b, c := int(op.A)*w, int(op.B)*w, int(op.C)*w
		for j := from; j < words; j++ {
			if d := (^good[a+j]&good[b+j] ^ good[c+j]) & mask[j] & obs[j]; d != 0 {
				return j, d
			}
		}
	case SopOrXor:
		a, b, c := int(op.A)*w, int(op.B)*w, int(op.C)*w
		for j := from; j < words; j++ {
			if d := ((good[a+j] | good[b+j]) ^ good[c+j]) & mask[j] & obs[j]; d != 0 {
				return j, d
			}
		}
	default: // SopOrnXor
		a, b, c := int(op.A)*w, int(op.B)*w, int(op.C)*w
		for j := from; j < words; j++ {
			if d := ((^good[a+j] | good[b+j]) ^ good[c+j]) & mask[j] & obs[j]; d != 0 {
				return j, d
			}
		}
	}
	return -1, 0
}

// FaultDetect evaluates the circuit with the given stuck-at fault against
// the pattern block loaded by the last Run (word 0 of the block). It
// returns a packed mask with bit i set when pattern i produces a
// primary-output discrepancy.
func (e *Evaluator) FaultDetect(f FaultSite) uint64 {
	return e.FaultDetectDelta(f, e.SiteDelta(f))
}

// FaultDetectDelta is FaultDetect with the fault site's local delta
// (SiteDelta, possibly masked down to the valid patterns of a partial
// block) already in hand: it propagates the delta through the fan-out
// cone with the event-driven row walk (walkCone) and returns the
// detection mask, a bitwise subset of delta. The delta applies to word 0;
// any further words of a wide block carry no fault. A zero delta returns
// 0 immediately without consuming an epoch.
func (e *Evaluator) FaultDetectDelta(f FaultSite, delta uint64) uint64 {
	if delta == 0 {
		return 0
	}
	frow := e.row(e.faulty, f.Gate)
	copy(frow, e.row(e.good, f.Gate))
	frow[0] ^= delta
	e.walkCone(f.Gate, e.rowBuf)
	return e.rowBuf[0]
}

// bumpEpoch starts a fresh faulty-propagation epoch.
func (e *Evaluator) bumpEpoch() {
	e.epoch++
	if e.epoch == 0 { // uint32 wrap: clear stamps once every 2^32 faults
		for i := range e.stamp {
			e.stamp[i] = 0
			e.sched[i] = 0
		}
		e.epoch = 1
	}
	e.lvls = e.lvls[:0]
	e.touchedOuts = e.touchedOuts[:0]
}

// ObsW returns the W-word observability row of a gate's output net for
// the block loaded by the last Run (which must not be mutated): bit p%64
// of word p/64 is set when flipping the net on pattern p alone produces
// a primary-output discrepancy. Gate functions are bitwise, so the
// patterns are independent and the detection mask of any single-site
// fault factors exactly, word by word:
//
//	FaultDetectDelta(f, delta) == delta & ObsW(f.Gate)[0]
//
// bit s of the detection depends only on whether the site flipped on
// pattern s (delta bit s) and on whether a flip there reaches an output
// on pattern s (observability bit s).
//
// Rows are memoized per net per Run block. A net with a single consuming
// pin inherits the consumer's row filtered by the consumer's local
// flip-sensitivity — exact, because the flip reaches the consumer
// through that one edge and every side input holds its fault-free
// value — so whole fanout-free chains resolve with one gate evaluation
// per link. A fanout stem's row is filled once per block by flipping the
// stem across the whole block (stemObsW) and is then shared by every
// fault in the fanout-free region feeding the stem.
func (e *Evaluator) ObsW(gate int32) []uint64 {
	g := gate
	for e.obsStamp[g] != e.obsEpoch {
		fo := e.nl.fanout[g]
		if len(fo) == 1 {
			e.obsChain = append(e.obsChain, g)
			g = fo[0]
			continue
		}
		dst := e.row(e.obsVal, g)
		if e.isOut[g] { // a primary output observes any flip directly
			for j := range dst {
				dst[j] = ^uint64(0)
			}
		} else if len(fo) > 1 { // fanout stem: one explicit cone propagation
			e.stemObsW(g, dst)
		} else {
			for j := range dst {
				dst[j] = 0
			}
		}
		e.obsStamp[g] = e.obsEpoch
	}
	obs := e.row(e.obsVal, g)
	for i := len(e.obsChain) - 1; i >= 0; i-- {
		gi := e.obsChain[i]
		dst := e.row(e.obsVal, gi)
		if e.isOut[gi] { // directly observed, whatever happens downstream
			for j := range dst {
				dst[j] = ^uint64(0)
			}
		} else {
			e.sensFlipW(gi, e.nl.fanout[gi][0], dst)
			for j := range dst {
				dst[j] &= obs[j]
			}
		}
		e.obsStamp[gi] = e.obsEpoch
		obs = dst
	}
	e.obsChain = e.obsChain[:0]
	return e.row(e.obsVal, gate)
}

// stemObsW fills dst with the W-word observability row of fanout stem g:
// the detection mask of an all-ones flip at g.
//
// Flipping a stem for a whole block diverges essentially its entire
// static cone — across 64×W patterns some pattern sensitizes almost
// every path — so the fill walks the precomputed level-ordered cone list
// (StemCone) in one flat loop: every cone gate is evaluated exactly
// once, with no per-gate scheduling (fan-out scans, level buckets,
// divergence tests) at all. Stems whose cone exceeded the netlist's
// cache budget use the event-driven walkCone instead.
func (e *Evaluator) stemObsW(g int32, dst []uint64) {
	frow, grow := e.row(e.faulty, g), e.row(e.good, g)
	for j := range frow {
		frow[j] = ^grow[j]
	}

	if sc := e.nl.stemCone(g, &e.cones); sc.Ops != nil {
		// The compiled cone resolves every operand to the good or faulty
		// half of the combined buffer at build time, so the flat walk
		// needs no epoch, no stamps, and no per-operand source checks.
		if e.w == 16 {
			evalConeOps16(e.gf, sc.Ops)
		} else {
			evalConeOps(e.gf, sc.Ops, e.w)
		}
		for j := range dst {
			dst[j] = 0
		}
		for _, out := range sc.Outs {
			fr, gr := e.row(e.faulty, out), e.row(e.good, out)
			for j := range dst {
				dst[j] |= fr[j] ^ gr[j]
			}
		}
		return
	}

	e.walkCone(g, dst)
}

// walkCone propagates the faulty row already written for net g through
// g's fan-out cone, event-driven and level by level on whole rows, and
// writes the OR of the resulting primary-output discrepancies into dst.
// A gate joins the walk only when one of its inputs diverged, so the
// cost follows the sensitized part of the cone, not its static size.
func (e *Evaluator) walkCone(g int32, dst []uint64) {
	e.bumpEpoch()
	e.markTouch(g)
	// markTouch pushes a level onto the e.lvls min-heap when its bucket
	// first becomes non-empty; consumers always sit at strictly higher
	// levels, so popping the minimum processes each touched level exactly
	// once and a drained bucket never regrows.
	for len(e.lvls) > 0 {
		l := e.popLvl()
		gates := e.bucket[l]
		for k := 0; k < len(gates); k++ {
			id := gates[k]
			if e.evalFaultyW(id, e.row(e.faulty, id), e.row(e.good, id)) != 0 {
				e.markTouch(id)
			}
			// A gate already marked this epoch that converged back to good
			// keeps its (now equal) row — reads stay consistent either way.
		}
		e.bucket[l] = gates[:0]
	}

	// Only outputs marked this epoch can differ; a marked output that
	// converged back to good contributes zero either way.
	for j := range dst {
		dst[j] = 0
	}
	for _, out := range e.touchedOuts {
		fr, gr := e.row(e.faulty, out), e.row(e.good, out)
		for j := range dst {
			dst[j] |= fr[j] ^ gr[j]
		}
	}
}

// sensFlipW writes into dst (which must not alias a good row) the W-word
// mask of patterns on which gate c's fault-free output flips when net
// from flips, every other input held at its fault-free value. Pins are
// matched by net, so a net feeding several pins of c flips all of them
// together, exactly as a real flip would.
func (e *Evaluator) sensFlipW(from, c int32, dst []uint64) {
	g := &e.nl.Gates[c]
	var rows [3][]uint64
	flipped := false
	for p := 0; p < g.NumIn(); p++ {
		r := e.row(e.good, g.In[p])
		if g.In[p] == from {
			if !flipped {
				for j := range e.rowBuf {
					e.rowBuf[j] = ^r[j]
				}
				flipped = true
			}
			r = e.rowBuf
		}
		rows[p] = r
	}
	gateFnW(g.Kind, rows, dst)
	grow := e.row(e.good, c)
	for j := range dst {
		dst[j] ^= grow[j]
	}
}

// pushLvl inserts a level into the e.lvls min-heap.
func (e *Evaluator) pushLvl(l int32) {
	e.lvls = append(e.lvls, l)
	i := len(e.lvls) - 1
	for i > 0 {
		p := (i - 1) / 2
		if e.lvls[p] <= e.lvls[i] {
			break
		}
		e.lvls[p], e.lvls[i] = e.lvls[i], e.lvls[p]
		i = p
	}
}

// popLvl removes and returns the smallest level from the e.lvls min-heap.
func (e *Evaluator) popLvl() int32 {
	top := e.lvls[0]
	n := len(e.lvls) - 1
	e.lvls[0] = e.lvls[n]
	e.lvls = e.lvls[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && e.lvls[c+1] < e.lvls[c] {
			c++
		}
		if e.lvls[i] <= e.lvls[c] {
			break
		}
		e.lvls[i], e.lvls[c] = e.lvls[c], e.lvls[i]
		i = c
	}
	return top
}

// EvalOnce evaluates the fault-free circuit on a single pattern given as
// booleans and returns the outputs. It is a convenience for tests and the
// ATPG engine; bulk work should use Run.
func (e *Evaluator) EvalOnce(pattern []bool) ([]bool, error) {
	in := make([]uint64, len(pattern)*e.w)
	for i, b := range pattern {
		if b {
			in[i*e.w] = 1
		}
	}
	if err := e.Run(in); err != nil {
		return nil, err
	}
	out := make([]bool, len(e.nl.Outputs))
	for i := range out {
		out[i] = e.OutputW(i)[0]&1 == 1
	}
	return out, nil
}

// PackInputsU64 packs word-level pattern values into per-bit input vectors
// for a width-1 block. words[p] holds the pattern-p value of a bus whose
// bit i feeds input busStart+i; the packed vectors are OR-ed into dst.
func PackInputsU64(dst []uint64, busStart int, width int, words []uint64) {
	PackInputsWide(dst, 1, busStart, width, words)
}

// PackInputsWide is PackInputsU64 for W-word blocks: dst holds W words
// per input, input-major (the layout Evaluator.Run consumes), and
// words[p] lands in word p/64 bit p%64 of each touched input row. It
// accepts up to 64×W patterns.
func PackInputsWide(dst []uint64, w int, busStart int, width int, words []uint64) {
	for p, word := range words {
		bit := uint64(1) << uint(p%64)
		wd := p / 64
		for i := 0; i < width; i++ {
			if word>>uint(i)&1 == 1 {
				dst[(busStart+i)*w+wd] |= bit
			}
		}
	}
}
