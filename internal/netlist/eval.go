package netlist

import (
	"fmt"
	"runtime"
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
// stuck-at faulty circuits through per-gate observability rows. The
// fault-free sweep runs the netlist's plan code (EvalPlan): per-level,
// per-kind tight loops with no per-gate dispatch in the inner body, on
// the AVX2 kernel at W=16 where the host has it.
//
// W (BlockWords) is fixed at construction; net n's good values occupy
// good[n*W : (n+1)*W], pattern p at word p/64, bit p%64 — bit order is
// stream order, so first detections are identical at every width. The
// fault engine's per-fault work is word-granular at every width, W == 1
// included: SiteOpFirstActive and SiteOpDetectFrom scan a block's words
// in order against the memoized observability row (ObsW), so a caller
// stops paying the moment a detection (or a proven zero) appears — most
// faults die in their first active word, and the block's later words are
// only ever touched for the survivors. SiteDelta, FaultDetect and Output
// are single-word conveniences for ATPG and tests; they read word 0 of
// the block, which is all of it on a width-1 evaluator.
type Evaluator struct {
	nl     *Netlist
	w      int // words per net value; 64*w patterns per block
	plan   *EvalPlan
	gf     []uint64 // combined good|faulty backing: good = gf[:ng*w], faulty = gf[ng*w:]
	good   []uint64 // len(Gates)*w, stride w
	faulty []uint64 // stride w: scratch rows of a stem fill or a FaultDetect sweep

	// Per-block observability memo (see ObsW), one W-word row per
	// net, invalidated by Run via its own epoch.
	obsVal   []uint64 // stride w
	obsStamp []uint32
	obsEpoch uint32
	obsChain []int32
	isOut    []bool

	rowBuf []uint64 // one-row scratch: sensFlipW's flipped input

	cones coneScratch // stem-cone compile scratch; see stemCone
}

// NewEvaluator creates a width-1 (64 patterns per block) evaluator.
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
// netlist, recycled from the netlist's free list when one is available
// and freshly built otherwise. Evaluator scratch is epoch-guarded, so a
// recycled evaluator behaves exactly like a fresh one; pass it back with
// ReleaseEvaluator when done to keep the warm arrays circulating.
func (n *Netlist) AcquireEvaluator(w int) (*Evaluator, error) {
	if w >= 1 && w <= MaxBlockWords {
		n.evMu.Lock()
		free := n.evFree[w-1]
		if len(free) > 0 {
			e := free[len(free)-1]
			n.evFree[w-1] = free[:len(free)-1]
			n.evMu.Unlock()
			return e, nil
		}
		n.evMu.Unlock()
	}
	return NewEvaluatorWide(n, w)
}

// ReleaseEvaluator returns an evaluator to its netlist's free list, which
// keeps at most GOMAXPROCS evaluators per width and drops the excess.
// Evaluators of other netlists (or nil) are ignored. The caller must not
// use the evaluator after releasing it.
func (n *Netlist) ReleaseEvaluator(e *Evaluator) {
	if e == nil || e.nl != n {
		return
	}
	n.evMu.Lock()
	if free := n.evFree[e.w-1]; len(free) < runtime.GOMAXPROCS(0) {
		n.evFree[e.w-1] = append(free, e)
	}
	n.evMu.Unlock()
}

// Netlist returns the circuit under evaluation.
func (e *Evaluator) Netlist() *Netlist { return e.nl }

// BlockWords returns the evaluator's block width in 64-pattern words.
func (e *Evaluator) BlockWords() int { return e.w }

// row returns net's w-word value row inside one of the stride-w arrays.
func (e *Evaluator) row(a []uint64, net int32) []uint64 { return netRow(a, net, e.w) }

// netRow returns net's w-word row inside a stride-w array. The
// three-index slice costs one bounds check, where a[i:][:w] costs two.
func netRow(a []uint64, net int32, w int) []uint64 {
	i := int(net) * w
	return a[i : i+w : i+w]
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
		evalPlanScalar(e.good, e.plan.code)
	} else {
		w := e.w
		for i, net := range e.nl.Inputs {
			copy(e.row(e.good, net), inputs[i*w:(i+1)*w])
		}
		runPlanCode(e.good, e.plan.code, w)
	}
	return nil
}

// Output returns word 0 of primary output i's good value row after Run
// (the whole row at W == 1; see OutputW).
func (e *Evaluator) Output(i int) uint64 { return e.good[int(e.nl.Outputs[i])*e.w] }

// OutputW returns the W-word good value row of primary output i after
// Run. The returned slice must not be mutated.
func (e *Evaluator) OutputW(i int) []uint64 { return e.row(e.good, e.nl.Outputs[i]) }

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
	// reading good rows only: faulty rows are scratch.
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
//
// It is a plain forward sweep of word 0 with the fault forced, sharing
// no code with ObsW or the compiled stem cones, so it stays an
// independent reference for both. Gate ids are topological, so the
// sweep starts at the fault's gate and reads fault-free rows below it;
// fan-out lists are in ascending id order, so it stops after the last
// consumer of any net that diverged.
func (e *Evaluator) FaultDetect(f FaultSite) uint64 {
	delta := e.SiteDelta(f)
	if delta == 0 {
		return 0
	}
	w, good, v := e.w, e.good, e.faulty
	gates, fanout := e.nl.Gates, e.nl.fanout
	from, end := int(f.Gate), int(f.Gate)
	set := func(id int, x uint64) {
		v[id*w] = x
		if fo := fanout[id]; x != good[id*w] && len(fo) > 0 {
			end = max(end, int(fo[len(fo)-1]))
		}
	}
	set(from, good[from*w]^delta)
	for id := from + 1; id <= end; id++ {
		g := &gates[id]
		n := g.NumIn()
		if n == 0 { // sources keep their fault-free value
			v[id*w] = good[id*w]
			continue
		}
		var in [3]uint64
		for p, net := range g.In[:n] {
			if int(net) < from {
				in[p] = good[int(net)*w]
			} else {
				in[p] = v[int(net)*w]
			}
		}
		set(id, gateFn(g.Kind, in[0], in[1], in[2]))
	}
	var det uint64
	for _, o := range e.nl.Outputs {
		if int(o) >= from && int(o) <= end {
			det |= v[int(o)*w] ^ good[int(o)*w]
		}
	}
	return det
}

// ObsW returns the W-word observability row of a gate's output net for
// the block loaded by the last Run (which must not be mutated): bit p%64
// of word p/64 is set when flipping the net on pattern p alone produces
// a primary-output discrepancy. Gate functions are bitwise, so the
// patterns are independent and the detection mask of any single-site
// fault factors exactly, word by word:
//
//	FaultDetect(f) == SiteDelta(f) & ObsW(f.Gate)[0]
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
// The fill writes the flipped stem row to faulty slot 0 and runs the
// stem's compiled cone (StemCone) in one flat pass: every cone gate is
// evaluated exactly once, with no per-gate scheduling and no divergence
// test, into the dense faulty slots that follow. The compiled code
// resolves every operand to a good row or a faulty slot of the combined
// buffer at build time, so the pass needs no epoch, no stamps and no
// per-operand source checks. At W=16 the pass is one call of the AVX2
// kernel on hosts that have it; elsewhere, and in a purego build, it is
// the generic evalStemCode (runStemCode).
func (e *Evaluator) stemObsW(g int32, dst []uint64) {
	sc := e.nl.stemCone(g, &e.cones)
	w := e.w
	frow, grow := e.faulty[:w], e.row(e.good, g)
	for j := range frow {
		frow[j] = ^grow[j]
	}
	runStemCode(e.gf, sc.Code, len(e.good)+w, w)
	clear(dst)
	for i := 0; i+1 < len(sc.Outs); i += 2 {
		gr, fr := e.row(e.gf, sc.Outs[i]), e.row(e.gf, sc.Outs[i+1])
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
