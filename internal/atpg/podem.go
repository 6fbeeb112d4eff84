// Package atpg implements automatic test pattern generation for the
// gate-level modules of package circuits: a random-pattern phase with
// fault dropping followed by PODEM path sensitization for the
// random-resistant remainder.
//
// It stands in for the commercial ATPG tool the paper uses to build the
// TPGEN and SFU_IMM PTPs; the generated patterns feed the
// pattern-to-instruction parsers of package ptpgen.
package atpg

import (
	"cmp"
	"slices"

	"gpustl/internal/circuits"
	"gpustl/internal/netlist"
)

// Three-valued logic constants for the good/faulty circuit pair.
const (
	v0 byte = 0
	v1 byte = 1
	vX byte = 2
)

// tval is a net's value in the composite (good, faulty) circuit. The five
// classic PODEM values map as: 0=(0,0), 1=(1,1), D=(1,0), D'=(0,1),
// X=anything containing vX.
type tval struct{ g, f byte }

func (t tval) isD() bool { return t.g != vX && t.f != vX && t.g != t.f }

// podem is one PODEM run for a single fault.
//
// Implication is event-driven. Every net's value is a function of the
// primary-input assignment alone, so after a decision, a flip or the
// unassignments of a backtrack only the gates downstream of the changed
// inputs can change: those inputs are scheduled, and propagate
// re-evaluates scheduled gates level by level, scheduling a gate's
// fan-outs only when its (good, faulty) value changed. The result equals
// a full forward sweep from the same assignment, with no undo log.
type podem struct {
	nl    *netlist.Netlist
	fault netlist.FaultSite

	pi   []byte  // primary-input assignments (v0/v1/vX), indexed like Inputs
	val  []tval  // per-net composite values, implied by propagate
	inIx []int32 // Inputs index of each primary-input net

	// cone is the fault gate's fan-out cone, the gate included, in
	// Order() order: the only gates whose faulty value can differ from
	// the good one, so the only ones that can carry a D or join the
	// D-frontier. inCone marks them; coneOuts are the primary outputs
	// among them.
	cone     []int32
	inCone   []bool
	coneOuts []int32

	// The gates waiting for re-evaluation, bucketed by level; no bucket
	// above hi holds any.
	queued  []bool
	buckets [][]int32
	hi      int32

	backtracks    int
	maxBacktracks int
}

// newPodem prepares a run: all inputs unassigned and every net implied.
func newPodem(nl *netlist.Netlist, f netlist.FaultSite, maxBacktracks int) *podem {
	p := &podem{
		nl:            nl,
		fault:         f,
		pi:            make([]byte, len(nl.Inputs)),
		val:           make([]tval, len(nl.Gates)),
		inIx:          make([]int32, len(nl.Gates)),
		queued:        make([]bool, len(nl.Gates)),
		buckets:       make([][]int32, nl.Levels()+1),
		hi:            -1,
		maxBacktracks: maxBacktracks,
	}
	for i, net := range nl.Inputs {
		p.pi[i] = vX
		p.inIx[net] = int32(i)
	}
	p.cone, p.inCone, p.coneOuts = faultCone(nl, f.Gate)
	// With every input X, every net is X except the constants and the
	// fault site: start from all-X and let propagate settle those.
	for i := range p.val {
		p.val[i] = tval{vX, vX}
	}
	for id, g := range nl.Gates {
		switch g.Kind {
		case netlist.KConst0, netlist.KConst1:
			p.schedule(int32(id))
		}
	}
	p.schedule(f.Gate)
	p.propagate()
	return p
}

// faultCone returns the fan-out cone of gate, the gate included, in
// Order() order (ascending level, then id), its membership by net, and
// the primary outputs in it.
func faultCone(nl *netlist.Netlist, gate int32) (cone []int32, in []bool, outs []int32) {
	in = make([]bool, len(nl.Gates))
	in[gate] = true
	cone = append(cone, gate)
	for i := 0; i < len(cone); i++ {
		for _, c := range nl.Fanout(cone[i]) {
			if !in[c] {
				in[c] = true
				cone = append(cone, c)
			}
		}
	}
	slices.SortFunc(cone, func(a, b int32) int {
		if la, lb := nl.Level(a), nl.Level(b); la != lb {
			return cmp.Compare(la, lb)
		}
		return cmp.Compare(a, b)
	})
	for _, o := range nl.Outputs {
		if in[o] {
			outs = append(outs, o)
		}
	}
	return cone, in, outs
}

func not3(a byte) byte {
	switch a {
	case v0:
		return v1
	case v1:
		return v0
	}
	return vX
}

func and3(a, b byte) byte {
	if a == v0 || b == v0 {
		return v0
	}
	if a == v1 && b == v1 {
		return v1
	}
	return vX
}

func or3(a, b byte) byte {
	if a == v1 || b == v1 {
		return v1
	}
	if a == v0 && b == v0 {
		return v0
	}
	return vX
}

func xor3(a, b byte) byte {
	if a == vX || b == vX {
		return vX
	}
	if a == b {
		return v0
	}
	return v1
}

func mux3(s, lo, hi byte) byte {
	switch s {
	case v0:
		return lo
	case v1:
		return hi
	}
	if lo == hi && lo != vX {
		return lo
	}
	return vX
}

func eval3(k netlist.Kind, a, b, s byte) byte {
	switch k {
	case netlist.KBuf:
		return a
	case netlist.KNot:
		return not3(a)
	case netlist.KAnd:
		return and3(a, b)
	case netlist.KOr:
		return or3(a, b)
	case netlist.KXor:
		return xor3(a, b)
	case netlist.KNand:
		return not3(and3(a, b))
	case netlist.KNor:
		return not3(or3(a, b))
	case netlist.KXnor:
		return not3(xor3(a, b))
	case netlist.KMux:
		return mux3(a, b, s)
	case netlist.KConst1:
		return v1
	}
	return v0 // KConst0
}

// eval computes a gate's composite value from its inputs' current
// values, injecting the fault at its site. Outside the fault's cone the
// faulty circuit equals the good one, so only the good value is computed.
func (p *podem) eval(id int32) tval {
	g := &p.nl.Gates[id]
	var t tval
	switch g.Kind {
	case netlist.KInput:
		v := p.pi[p.inIx[id]]
		t = tval{v, v}
	case netlist.KConst0:
		t = tval{v0, v0}
	case netlist.KConst1:
		t = tval{v1, v1}
	default:
		var ig, fg [3]byte
		for pin, n := 0, g.NumIn(); pin < n; pin++ {
			in := p.val[g.In[pin]]
			ig[pin] = in.g
			fg[pin] = in.f
		}
		t.g = eval3(g.Kind, ig[0], ig[1], ig[2])
		if !p.inCone[id] {
			return tval{t.g, t.g}
		}
		if id == p.fault.Gate && p.fault.Pin >= 0 {
			fg[p.fault.Pin] = p.sa()
		}
		t.f = eval3(g.Kind, fg[0], fg[1], fg[2])
	}
	if id == p.fault.Gate && p.fault.Pin < 0 {
		t.f = p.sa()
	}
	return t
}

// assign sets primary input i and schedules it; propagate implies it.
func (p *podem) assign(i int, v byte) {
	p.pi[i] = v
	p.schedule(p.nl.Inputs[i])
}

// schedule queues a gate for re-evaluation.
func (p *podem) schedule(id int32) {
	if p.queued[id] {
		return
	}
	p.queued[id] = true
	l := p.nl.Level(id)
	p.buckets[l] = append(p.buckets[l], id)
	p.hi = max(p.hi, l)
}

// propagate re-evaluates the scheduled gates in level order, scheduling
// the fan-outs of every gate whose value changed. A gate's fan-outs sit
// on higher levels, so each gate is evaluated once, after all its
// inputs settled.
func (p *podem) propagate() {
	for l := int32(0); l <= p.hi; l++ {
		for _, id := range p.buckets[l] {
			p.queued[id] = false
			if t := p.eval(id); t != p.val[id] {
				p.val[id] = t
				for _, c := range p.nl.Fanout(id) {
					p.schedule(c)
				}
			}
		}
		p.buckets[l] = p.buckets[l][:0]
	}
	p.hi = -1
}

// sa returns the stuck value in three-valued encoding.
func (p *podem) sa() byte {
	if p.fault.SA1 {
		return v1
	}
	return v0
}

// siteNet returns the net whose fault-free value activates the fault: the
// gate output for stem faults, the driving net of the pin for pin faults.
func (p *podem) siteNet() int32 {
	if p.fault.Pin < 0 {
		return p.fault.Gate
	}
	return p.nl.Gates[p.fault.Gate].In[p.fault.Pin]
}

// siteGood returns the current fault-free value at the fault site.
func (p *podem) siteGood() byte { return p.val[p.siteNet()].g }

// detected reports whether a D/D' reaches a primary output. Outputs
// outside the fault's cone never carry one.
func (p *podem) detected() bool {
	for _, o := range p.coneOuts {
		if p.val[o].isD() {
			return true
		}
	}
	return false
}

// inFrontier reports whether gate id is on the D-frontier: its output is
// X in the good or faulty circuit while at least one input carries a D.
// For input-pin faults the faulted gate itself joins the frontier as soon
// as the pin is activated (the pin discrepancy is a D that exists on no
// net). Only gates of the fault's cone can qualify.
func (p *podem) inFrontier(id int32) bool {
	g := &p.nl.Gates[id]
	if g.NumIn() == 0 {
		return false
	}
	v := p.val[id]
	if v.g != vX && v.f != vX {
		return false
	}
	if p.fault.Pin >= 0 && id == p.fault.Gate {
		if sg := p.siteGood(); sg != vX && sg != p.sa() {
			return true
		}
	}
	for pin := 0; pin < g.NumIn(); pin++ {
		if p.val[g.In[pin]].isD() {
			return true
		}
	}
	return false
}

// objective returns the next (net, value) goal: justify the activation
// value at the fault site, then advance the D-frontier, taking its gates
// in Order() order.
func (p *podem) objective() (int32, byte, bool) {
	switch p.siteGood() {
	case vX:
		return p.siteNet(), not3(p.sa()), true
	case p.sa():
		return 0, 0, false // activation impossible under current assignments
	}
	for _, id := range p.cone {
		if !p.inFrontier(id) {
			continue
		}
		g := &p.nl.Gates[id]
		// Find an X input and demand the non-controlling value.
		for pin := 0; pin < g.NumIn(); pin++ {
			in := g.In[pin]
			if p.val[in].g != vX {
				continue
			}
			var want byte
			switch g.Kind {
			case netlist.KAnd, netlist.KNand:
				want = v1
			case netlist.KOr, netlist.KNor:
				want = v0
			case netlist.KXor, netlist.KXnor:
				want = v0
			case netlist.KMux:
				if pin == 0 {
					// Select the side carrying the D.
					if p.val[g.In[2]].isD() {
						want = v1
					} else {
						want = v0
					}
				} else {
					want = v0
				}
			default:
				want = v1
			}
			return in, want, true
		}
	}
	return 0, 0, false
}

// backtrace maps an objective to a primary-input assignment by walking
// X-paths backwards, accounting for inversions.
func (p *podem) backtrace(net int32, v byte) (int, byte, bool) {
	for hops := 0; hops < len(p.nl.Gates); hops++ {
		g := &p.nl.Gates[net]
		if g.Kind == netlist.KInput {
			return int(p.inIx[net]), v, true
		}
		if g.NumIn() == 0 {
			return 0, 0, false // constant: cannot justify
		}
		// Pick the first X input.
		next := int32(-1)
		for pin := 0; pin < g.NumIn(); pin++ {
			if p.val[g.In[pin]].g == vX {
				next = g.In[pin]
				break
			}
		}
		if next < 0 {
			return 0, 0, false
		}
		switch g.Kind {
		case netlist.KNot, netlist.KNand, netlist.KNor:
			v = not3(v)
		}
		net = next
	}
	return 0, 0, false
}

// decision is one PI assignment on the implicit decision stack.
type decision struct {
	pi      int
	value   byte
	flipped bool
}

// outcome is how a PODEM search ends.
type outcome uint8

const (
	podemFound      outcome = iota // a pattern that detects the fault
	podemUntestable                // the search space is exhausted: no pattern exists
	podemAborted                   // the backtrack budget ran out first
)

// run executes the PODEM search. It returns the generated pattern and
// podemFound on success, and a zero pattern with the reason otherwise.
func (p *podem) run() (circuits.Pattern, outcome) {
	var stack []decision
	for {
		if p.detected() {
			return p.pattern(), podemFound
		}
		net, want, ok := p.objective()
		feasible := ok
		var pi int
		var v byte
		if feasible {
			pi, v, feasible = p.backtrace(net, want)
		}
		if feasible {
			stack = append(stack, decision{pi: pi, value: v})
			p.assign(pi, v)
			p.propagate()
			continue
		}
		// Backtrack.
		for {
			if len(stack) == 0 {
				return circuits.Pattern{}, podemUntestable
			}
			d := &stack[len(stack)-1]
			if !d.flipped {
				d.flipped = true
				d.value = not3(d.value)
				p.assign(d.pi, d.value)
				p.backtracks++
				if p.backtracks > p.maxBacktracks {
					return circuits.Pattern{}, podemAborted
				}
				p.propagate()
				break
			}
			p.assign(d.pi, vX)
			stack = stack[:len(stack)-1]
		}
		if p.detected() {
			return p.pattern(), podemFound
		}
	}
}

// pattern freezes the current PI assignment, filling X's with 0.
func (p *podem) pattern() circuits.Pattern {
	var pat circuits.Pattern
	for i, v := range p.pi {
		if v == v1 {
			pat.W[i/64] |= 1 << (uint(i) % 64)
		}
	}
	return pat
}
