package netlist

// EvalPlan is the compiled structure-of-arrays form of a netlist's
// combinational sweep: gates are flattened into level order and, within
// each level, sorted by Kind into contiguous runs, with the output and
// input net indices of every planned gate hoisted into parallel int32
// arrays. Evaluator.Run walks the runs with one kind dispatch per run
// and a branch-free loop over the run's gates, instead of one switch and
// one Gate load per gate — the one-pass levelized sweep of GATSPI-style
// GPU simulators, on CPU words.
//
// Source gates (inputs and constants) are excluded: their
// values are loaded outside the sweep and no run ever writes them. The
// plan is a property of the netlist alone, built once and shared
// read-only by every evaluator at any block width.
type EvalPlan struct {
	runs []GateRun
	out  []int32 // output net per planned gate, plan order
	in0  []int32 // first input net per planned gate
	in1  []int32 // second input net, -1 when the kind has fewer pins
	in2  []int32 // third input net (mux hi), -1 otherwise

	levels int // levels containing at least one run
}

// GateRun is one contiguous run of same-kind gates within one level of
// the plan: plan indices Start..End-1 all hold gates of kind Kind.
type GateRun struct {
	Kind  Kind
	Level int32
	Start int32
	End   int32
}

// Len returns the number of gates in the run.
func (r GateRun) Len() int { return int(r.End - r.Start) }

// Runs returns the plan's gate runs in sweep order. The returned slice
// must not be mutated.
func (p *EvalPlan) Runs() []GateRun { return p.runs }

// NumRuns returns the number of (level, kind) gate runs in the plan.
func (p *EvalPlan) NumRuns() int { return len(p.runs) }

// NumLevels returns how many levels contain at least one planned gate.
func (p *EvalPlan) NumLevels() int { return p.levels }

// NumGates returns the number of planned (non-source) gates.
func (p *EvalPlan) NumGates() int { return len(p.out) }

// Plan returns the lazily compiled SoA evaluation plan for the netlist.
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

func buildPlan(n *Netlist) *EvalPlan {
	p := &EvalPlan{}
	var byKind [NumKinds][]int32
	for i := 0; i < len(n.order); {
		lvl := n.level[n.order[i]]
		j := i
		for j < len(n.order) && n.level[n.order[j]] == lvl {
			j++
		}
		for k := range byKind {
			byKind[k] = byKind[k][:0]
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
		for k := range byKind {
			gs := byKind[k]
			if len(gs) == 0 {
				continue
			}
			start := int32(len(p.out))
			for _, id := range gs {
				g := &n.Gates[id]
				p.out = append(p.out, id)
				p.in0 = append(p.in0, g.In[0])
				p.in1 = append(p.in1, g.In[1])
				p.in2 = append(p.in2, g.In[2])
			}
			p.runs = append(p.runs, GateRun{
				Kind: Kind(k), Level: lvl, Start: start, End: int32(len(p.out)),
			})
		}
		i = j
	}
	return p
}
