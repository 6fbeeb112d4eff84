// Package netlist provides a gate-level combinational circuit
// representation with 64-way bit-parallel evaluation and single-stuck-at
// faulty evaluation restricted to the fault's fan-out cone.
//
// It plays the role of the synthesized (Nangate 15 nm) gate-level netlists
// the paper fault-simulates: package circuits builds the Decoder Unit, SP
// datapath and SFU datapath on top of these primitives, and package fault
// runs stuck-at campaigns over them.
package netlist

import (
	"errors"
	"fmt"
	"sync"
)

// Kind enumerates the supported cell types, a small subset of a standard
// cell library.
type Kind uint8

// Gate kinds. Input gates have no fan-in; Const gates drive fixed values;
// Mux selects In[1] when In[0] is 0 and In[2] when In[0] is 1.
const (
	KInput Kind = iota
	KConst0
	KConst1
	KBuf
	KNot
	KAnd
	KOr
	KXor
	KNand
	KNor
	KXnor
	KMux
	kindCount
)

// NumKinds is the number of gate kinds.
const NumKinds = int(kindCount)

var kindNames = [NumKinds]string{
	"INPUT", "CONST0", "CONST1", "BUF", "NOT", "AND", "OR", "XOR",
	"NAND", "NOR", "XNOR", "MUX",
}

// String returns the cell name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// arityTab holds arity+1 per kind so the zero value flags unknown kinds.
var arityTab = [NumKinds]int8{
	KInput: 1, KConst0: 1, KConst1: 1,
	KBuf: 2, KNot: 2,
	KAnd: 3, KOr: 3, KXor: 3, KNand: 3, KNor: 3, KXnor: 3,
	KMux: 4,
}

// arity returns the required fan-in count of a kind, or -1 if unknown.
// A table lookup rather than a switch: this sits on the fault
// simulator's hottest paths (SiteDelta and faulty gate evaluation).
func arity(k Kind) int {
	if int(k) < len(arityTab) {
		return int(arityTab[k]) - 1
	}
	return -1
}

// Gate is one cell; its output net id equals its index in Netlist.Gates.
type Gate struct {
	Kind Kind
	In   [3]int32 // fan-in net ids; unused entries are -1
}

// NumIn returns the fan-in count of the gate.
func (g Gate) NumIn() int { return arity(g.Kind) }

// Netlist is an immutable, levelized combinational circuit.
type Netlist struct {
	Name    string
	Gates   []Gate
	Inputs  []int32 // primary-input net ids, in declaration order
	Outputs []int32 // primary-output net ids, in declaration order

	InputNames  []string // one per Inputs entry
	OutputNames []string

	level  []int32   // topological level per gate
	order  []int32   // gate ids in non-decreasing level order
	fanout [][]int32 // consumers of each net
	maxLvl int32

	groups  []string
	gateGrp []uint16

	coneOnce sync.Once // lazily built cone metadata (see cone.go)
	cone     *ConeInfo

	planOnce sync.Once // lazily compiled evaluation plan code (see plan.go)
	plan     *EvalPlan

	stemOnce sync.Once // sizes the lazily filled stem-cone cache (see stemcone.go)
	stems    stemConeCache

	// evFree keeps released evaluators per block width (index w-1), at
	// most GOMAXPROCS each. The expensive part of an evaluator is its
	// width-strided scratch — good/faulty/observability arrays, megabytes
	// at the widest setting — and that outlives any single simulation
	// campaign over the circuit, so the free list lives here rather than
	// with any one caller. Unlike a sync.Pool it survives garbage
	// collection, which would otherwise drop warm evaluators mid-campaign.
	evMu   sync.Mutex
	evFree [MaxBlockWords][]*Evaluator
}

// Groups returns the functional group names declared during construction
// (index 0 is the default ungrouped label).
func (n *Netlist) Groups() []string { return n.groups }

// GroupOf returns the functional group of a gate.
func (n *Netlist) GroupOf(gate int32) string {
	if int(gate) >= len(n.gateGrp) {
		return ""
	}
	return n.groups[n.gateGrp[gate]]
}

// NumGates returns the number of cells, excluding primary inputs and
// constants (the convention used when counting circuit size).
func (n *Netlist) NumGates() int {
	c := 0
	for _, g := range n.Gates {
		if g.Kind != KInput && g.Kind != KConst0 && g.Kind != KConst1 {
			c++
		}
	}
	return c
}

// NumNets returns the total net count (gates + inputs + constants).
func (n *Netlist) NumNets() int { return len(n.Gates) }

// Levels returns the logic depth of the circuit.
func (n *Netlist) Levels() int { return int(n.maxLvl) }

// Fanout returns the consumer gate ids of a net.
func (n *Netlist) Fanout(net int32) []int32 { return n.fanout[net] }

// Builder constructs a Netlist.
type Builder struct {
	name  string
	gates []Gate
	ins   []int32
	outs  []int32
	inNm  []string
	outNm []string
	c0    int32
	c1    int32

	groups   []string
	groupIdx map[string]uint16
	curGroup uint16
	gateGrp  []uint16
}

// NewBuilder returns an empty builder for a circuit with the given name.
func NewBuilder(name string) *Builder {
	b := &Builder{name: name, c0: -1, c1: -1, groupIdx: map[string]uint16{}}
	b.SetGroup("") // default (ungrouped)
	return b
}

// SetGroup labels all gates created from now on with the given functional
// group (e.g. "multiplier", "shifter"); coverage reports aggregate per
// group. The empty string is the default ungrouped label.
func (b *Builder) SetGroup(name string) {
	if idx, ok := b.groupIdx[name]; ok {
		b.curGroup = idx
		return
	}
	idx := uint16(len(b.groups))
	b.groups = append(b.groups, name)
	b.groupIdx[name] = idx
	b.curGroup = idx
}

func (b *Builder) add(k Kind, in ...int32) int32 {
	g := Gate{Kind: k, In: [3]int32{-1, -1, -1}}
	copy(g.In[:], in)
	b.gates = append(b.gates, g)
	b.gateGrp = append(b.gateGrp, b.curGroup)
	return int32(len(b.gates) - 1)
}

// Input declares a named primary input and returns its net.
func (b *Builder) Input(name string) int32 {
	n := b.add(KInput)
	b.ins = append(b.ins, n)
	b.inNm = append(b.inNm, name)
	return n
}

// InputBus declares width named inputs name[0..width-1], LSB first.
func (b *Builder) InputBus(name string, width int) []int32 {
	bus := make([]int32, width)
	for i := range bus {
		bus[i] = b.Input(fmt.Sprintf("%s[%d]", name, i))
	}
	return bus
}

// Const0 returns the constant-0 net (created on first use).
func (b *Builder) Const0() int32 {
	if b.c0 < 0 {
		b.c0 = b.add(KConst0)
	}
	return b.c0
}

// Const1 returns the constant-1 net (created on first use).
func (b *Builder) Const1() int32 {
	if b.c1 < 0 {
		b.c1 = b.add(KConst1)
	}
	return b.c1
}

// Logic gates.

func (b *Builder) Buf(a int32) int32     { return b.add(KBuf, a) }
func (b *Builder) Not(a int32) int32     { return b.add(KNot, a) }
func (b *Builder) And(a, c int32) int32  { return b.add(KAnd, a, c) }
func (b *Builder) Or(a, c int32) int32   { return b.add(KOr, a, c) }
func (b *Builder) Xor(a, c int32) int32  { return b.add(KXor, a, c) }
func (b *Builder) Nand(a, c int32) int32 { return b.add(KNand, a, c) }
func (b *Builder) Nor(a, c int32) int32  { return b.add(KNor, a, c) }
func (b *Builder) Xnor(a, c int32) int32 { return b.add(KXnor, a, c) }

// Mux returns sel ? hi : lo.
func (b *Builder) Mux(sel, lo, hi int32) int32 { return b.add(KMux, sel, lo, hi) }

// AndN reduces any number of nets with a balanced AND tree.
func (b *Builder) AndN(nets ...int32) int32 { return b.tree(KAnd, b.Const1(), nets) }

// OrN reduces any number of nets with a balanced OR tree.
func (b *Builder) OrN(nets ...int32) int32 { return b.tree(KOr, b.Const0(), nets) }

// XorN reduces any number of nets with a balanced XOR tree.
func (b *Builder) XorN(nets ...int32) int32 { return b.tree(KXor, b.Const0(), nets) }

func (b *Builder) tree(k Kind, empty int32, nets []int32) int32 {
	switch len(nets) {
	case 0:
		return empty
	case 1:
		return nets[0]
	}
	mid := len(nets) / 2
	return b.add(k, b.tree(k, empty, nets[:mid]), b.tree(k, empty, nets[mid:]))
}

// Output declares a named primary output driven by net.
func (b *Builder) Output(name string, net int32) {
	b.outs = append(b.outs, net)
	b.outNm = append(b.outNm, name)
}

// OutputBus declares width named outputs name[0..width-1], LSB first.
func (b *Builder) OutputBus(name string, nets []int32) {
	for i, n := range nets {
		b.Output(fmt.Sprintf("%s[%d]", name, i), n)
	}
}

// Build validates, levelizes and freezes the circuit.
func (b *Builder) Build() (*Netlist, error) {
	n := &Netlist{
		Name:        b.name,
		Gates:       b.gates,
		Inputs:      b.ins,
		Outputs:     b.outs,
		InputNames:  b.inNm,
		OutputNames: b.outNm,
		groups:      b.groups,
		gateGrp:     b.gateGrp,
	}
	if len(n.Outputs) == 0 {
		return nil, errors.New("netlist: no outputs")
	}
	ng := int32(len(n.Gates))
	for id, g := range n.Gates {
		want := g.NumIn()
		for p := 0; p < 3; p++ {
			in := g.In[p]
			if p < want {
				if in < 0 || in >= ng {
					return nil, fmt.Errorf("netlist: gate %d (%v) pin %d: bad net %d", id, g.Kind, p, in)
				}
				// Builders only reference already-created nets, so the
				// graph is acyclic by construction.
				if in >= int32(id) {
					return nil, fmt.Errorf("netlist: gate %d references later net %d (cycle?)", id, in)
				}
			} else if in != -1 {
				return nil, fmt.Errorf("netlist: gate %d (%v) has excess pin %d", id, g.Kind, p)
			}
		}
	}
	for i, o := range n.Outputs {
		if o < 0 || o >= ng {
			return nil, fmt.Errorf("netlist: output %d: bad net %d", i, o)
		}
	}
	n.levelize()
	return n, nil
}

func (n *Netlist) levelize() {
	n.level = make([]int32, len(n.Gates))
	n.fanout = make([][]int32, len(n.Gates))
	for id, g := range n.Gates {
		var lvl int32
		for p := 0; p < g.NumIn(); p++ {
			in := g.In[p]
			if n.level[in] >= lvl {
				lvl = n.level[in] + 1
			}
			n.fanout[in] = append(n.fanout[in], int32(id))
		}
		n.level[id] = lvl
		if lvl > n.maxLvl {
			n.maxLvl = lvl
		}
	}
	// Counting sort by level gives a topological order grouped by level.
	counts := make([]int32, n.maxLvl+2)
	for _, l := range n.level {
		counts[l+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	n.order = make([]int32, len(n.Gates))
	pos := make([]int32, len(counts))
	copy(pos, counts)
	for id := range n.Gates {
		l := n.level[id]
		n.order[pos[l]] = int32(id)
		pos[l]++
	}
}

// Level returns the topological level of a net.
func (n *Netlist) Level(net int32) int32 { return n.level[net] }

// Order returns the gate ids in topological (level) order. The returned
// slice must not be mutated.
func (n *Netlist) Order() []int32 { return n.order }
