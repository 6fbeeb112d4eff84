package netlist

import "fmt"

// EvalPlan is a netlist's combinational sweep compiled to run code, in
// the format of the stem cones' code (StemCone): gates are flattened
// into level order and, within each level, grouped by Kind into runs.
// Each run is a header word (kind<<16 | count), split at maxRunLen like
// a cone's, followed by its count ops, 1+arity(kind) int32 words per
// op: the op's destination net, then its operand nets in pin order.
// Evaluator.Run walks the code with one kind dispatch per run and a
// branch-free loop over the run's ops, instead of one switch and one
// Gate load per gate — the one-pass levelized sweep of GATSPI-style GPU
// simulators, on CPU words. At W=16 on hosts with AVX2 one assembly
// call runs the whole sweep (runPlanCode).
//
// Source gates (inputs and constants) are excluded: their
// values are loaded outside the sweep and no op ever writes them. The
// plan is a property of the netlist alone, built once and shared
// read-only by every evaluator at any block width.
type EvalPlan struct {
	code []int32 // run code, see above; passed checkPlanCode

	levels int // levels containing at least one planned gate
	runs   int // (level, kind) groups of planned gates
}

// NumRuns returns the number of (level, kind) gate runs in the plan.
func (p *EvalPlan) NumRuns() int { return p.runs }

// NumLevels returns how many levels contain at least one planned gate.
func (p *EvalPlan) NumLevels() int { return p.levels }

// Plan returns the lazily compiled evaluation plan for the netlist.
// Like Cone, it is built once and immutable afterwards, so it is safe to
// share across goroutines.
func (n *Netlist) Plan() *EvalPlan {
	n.planOnce.Do(func() { n.plan = buildPlan(n) })
	return n.plan
}

// planned reports whether a gate takes part in the sweep. Inputs and
// constants are loaded before it.
func planned(k Kind) bool {
	switch k {
	case KInput, KConst0, KConst1:
		return false
	}
	return true
}

// buildPlan compiles the netlist's sweep and range-checks the result:
// the AVX2 kernel does no bounds checks of its own, so code the emitter
// got wrong panics here instead of reaching it.
func buildPlan(n *Netlist) *EvalPlan {
	p := &EvalPlan{}
	var byKind [NumKinds][]int32
	for i := 0; i < len(n.order); {
		lvl := n.level[n.order[i]]
		j := i
		for j < len(n.order) && n.level[n.order[j]] == lvl {
			j++
		}
		any := false
		for _, id := range n.order[i:j] {
			if k := n.Gates[id].Kind; planned(k) {
				byKind[k] = append(byKind[k], id)
				any = true
			}
		}
		if any {
			p.levels++
		}
		for k, gs := range byKind {
			if len(gs) == 0 {
				continue
			}
			p.runs++
			pins := arity(Kind(k))
			for len(gs) > 0 {
				run := gs[:min(len(gs), maxRunLen)]
				gs = gs[len(run):]
				p.code = append(p.code, runHeader(Kind(k), len(run)))
				for _, id := range run {
					p.code = append(p.code, id)
					p.code = append(p.code, n.Gates[id].In[:pins]...)
				}
			}
			byKind[k] = byKind[k][:0]
		}
		i = j
	}
	if err := checkPlanCode(p.code, n.Gates); err != nil {
		panic(fmt.Sprintf("netlist %s: sweep compiled to unsafe plan code: %v", n.Name, err))
	}
	return p
}

// checkPlanCode checks that plan code over gates stays inside an
// evaluator's good rows and computes every planned gate from defined
// rows: every run header names a planned kind and at least one op, and
// its ops lie inside the code; every index lies in [0, len(gates));
// every destination is a planned gate of the run's kind, written
// exactly once; and every operand is a source or a gate an earlier op
// wrote.
func checkPlanCode(code []int32, gates []Gate) error {
	ng := len(gates)
	written := make([]bool, ng)
	for pc := 0; pc < len(code); {
		kw, n := code[pc]>>16, int(code[pc]&maxRunLen)
		if kw < int32(KBuf) || kw > int32(KMux) || n == 0 { // the planned kinds
			return fmt.Errorf("pc %d: bad run header %#x", pc, code[pc])
		}
		k := Kind(kw)
		stride := 1 + arity(k)
		end := pc + 1 + n*stride
		if end > len(code) {
			return fmt.Errorf("pc %d: run of %d %v ops overruns %d code words", pc, n, k, len(code))
		}
		for op := pc + 1; op < end; op += stride {
			for i, net := range code[op : op+stride] {
				if net < 0 || int(net) >= ng {
					return fmt.Errorf("pc %d: net %d outside [0, %d)", op+i, net, ng)
				}
			}
			for i, in := range code[op+1 : op+stride] {
				if planned(gates[in].Kind) && !written[in] {
					return fmt.Errorf("pc %d: operand net %d read before it is written", op+1+i, in)
				}
			}
			d := code[op]
			if gates[d].Kind != k {
				return fmt.Errorf("pc %d: destination net %d is a %v gate in a %v run", op, d, gates[d].Kind, k)
			}
			if written[d] {
				return fmt.Errorf("pc %d: destination net %d written twice", op, d)
			}
			written[d] = true
		}
		pc = end
	}
	for id, g := range gates {
		if planned(g.Kind) && !written[id] {
			return fmt.Errorf("planned gate %d (%v) is never written", id, g.Kind)
		}
	}
	return nil
}

// evalPlanScalar runs plan code (see EvalPlan) at W == 1: one kind
// dispatch per run, then a tight loop over the run's ops with direct
// good-array indexing.
func evalPlanScalar(good []uint64, code []int32) {
	for pc := 0; pc < len(code); {
		k, n := Kind(code[pc]>>16), int(code[pc]&maxRunLen)
		ops := code[pc+1 : pc+1+n*(1+arity(k))]
		pc += 1 + len(ops)
		switch k {
		case KBuf:
			for ; len(ops) >= 2; ops = ops[2:] {
				good[ops[0]] = good[ops[1]]
			}
		case KNot:
			for ; len(ops) >= 2; ops = ops[2:] {
				good[ops[0]] = ^good[ops[1]]
			}
		case KAnd:
			for ; len(ops) >= 3; ops = ops[3:] {
				good[ops[0]] = good[ops[1]] & good[ops[2]]
			}
		case KOr:
			for ; len(ops) >= 3; ops = ops[3:] {
				good[ops[0]] = good[ops[1]] | good[ops[2]]
			}
		case KXor:
			for ; len(ops) >= 3; ops = ops[3:] {
				good[ops[0]] = good[ops[1]] ^ good[ops[2]]
			}
		case KNand:
			for ; len(ops) >= 3; ops = ops[3:] {
				good[ops[0]] = ^(good[ops[1]] & good[ops[2]])
			}
		case KNor:
			for ; len(ops) >= 3; ops = ops[3:] {
				good[ops[0]] = ^(good[ops[1]] | good[ops[2]])
			}
		case KXnor:
			for ; len(ops) >= 3; ops = ops[3:] {
				good[ops[0]] = ^(good[ops[1]] ^ good[ops[2]])
			}
		case KMux:
			for ; len(ops) >= 4; ops = ops[4:] {
				s := good[ops[1]]
				good[ops[0]] = s&good[ops[3]] | ^s&good[ops[2]]
			}
		}
	}
}

// evalPlanCode runs plan code at width w: per run, per op, a
// branch-free loop over the w words of the operand rows. It is the
// portable kernel at W > 1 and the oracle of the AVX2 one
// (evalPlanCodeAVX2), which runPlanCode picks instead at W=16 on hosts
// that have it.
func evalPlanCode(good []uint64, code []int32, w int) {
	for pc := 0; pc < len(code); {
		k, n := Kind(code[pc]>>16), int(code[pc]&maxRunLen)
		ops := code[pc+1 : pc+1+n*(1+arity(k))]
		pc += 1 + len(ops)
		switch k {
		case KBuf:
			for ; len(ops) >= 2; ops = ops[2:] {
				copy(netRow(good, ops[0], w), netRow(good, ops[1], w))
			}
		case KNot:
			for ; len(ops) >= 2; ops = ops[2:] {
				d, a := netRow(good, ops[0], w), netRow(good, ops[1], w)
				for j := range d {
					d[j] = ^a[j]
				}
			}
		case KAnd:
			for ; len(ops) >= 3; ops = ops[3:] {
				d, a, b := netRow(good, ops[0], w), netRow(good, ops[1], w), netRow(good, ops[2], w)
				for j := range d {
					d[j] = a[j] & b[j]
				}
			}
		case KOr:
			for ; len(ops) >= 3; ops = ops[3:] {
				d, a, b := netRow(good, ops[0], w), netRow(good, ops[1], w), netRow(good, ops[2], w)
				for j := range d {
					d[j] = a[j] | b[j]
				}
			}
		case KXor:
			for ; len(ops) >= 3; ops = ops[3:] {
				d, a, b := netRow(good, ops[0], w), netRow(good, ops[1], w), netRow(good, ops[2], w)
				for j := range d {
					d[j] = a[j] ^ b[j]
				}
			}
		case KNand:
			for ; len(ops) >= 3; ops = ops[3:] {
				d, a, b := netRow(good, ops[0], w), netRow(good, ops[1], w), netRow(good, ops[2], w)
				for j := range d {
					d[j] = ^(a[j] & b[j])
				}
			}
		case KNor:
			for ; len(ops) >= 3; ops = ops[3:] {
				d, a, b := netRow(good, ops[0], w), netRow(good, ops[1], w), netRow(good, ops[2], w)
				for j := range d {
					d[j] = ^(a[j] | b[j])
				}
			}
		case KXnor:
			for ; len(ops) >= 3; ops = ops[3:] {
				d, a, b := netRow(good, ops[0], w), netRow(good, ops[1], w), netRow(good, ops[2], w)
				for j := range d {
					d[j] = ^(a[j] ^ b[j])
				}
			}
		case KMux:
			for ; len(ops) >= 4; ops = ops[4:] {
				d, s := netRow(good, ops[0], w), netRow(good, ops[1], w)
				lo, hi := netRow(good, ops[2], w), netRow(good, ops[3], w)
				for j := range d {
					d[j] = s[j]&hi[j] | lo[j]&^s[j]
				}
			}
		}
	}
}
