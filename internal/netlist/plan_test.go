package netlist

import (
	"math/rand"
	"slices"
	"testing"
)

// randomSweepCircuit returns a random circuit of nGates planned gates
// over nIn inputs and both constants, holding at least one gate of
// every planned kind once nGates reaches opKinds. With long set, its
// first level also holds more same-kind gates than a run header can
// count, which the plan must split.
func randomSweepCircuit(t testing.TB, r *rand.Rand, nIn, nGates int, long bool) *Netlist {
	t.Helper()
	b := NewBuilder("sweep")
	nets := append(b.InputBus("i", nIn), b.Const0(), b.Const1())
	srcs := len(nets)
	pick := func(n int) []int32 {
		in := make([]int32, n)
		for p := range in {
			in[p] = nets[r.Intn(len(nets))]
		}
		return in
	}
	if long {
		k := KBuf + Kind(r.Intn(opKinds))
		for range maxRunLen + 1 + r.Intn(7) {
			in := make([]int32, arity(k))
			for p := range in {
				in[p] = nets[r.Intn(srcs)]
			}
			nets = append(nets, b.add(k, in...))
		}
	}
	for g := range nGates {
		k := KBuf + Kind(g%opKinds)
		if g >= opKinds {
			k = KBuf + Kind(r.Intn(opKinds))
		}
		nets = append(nets, b.add(k, pick(arity(k))...))
	}
	for _, o := range nets[len(nets)-min(len(nets), 8):] {
		b.Output("o", o)
	}
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// planOp is one decoded plan op: its code offset, kind, destination
// and operands.
type planOp struct {
	PC   int
	Kind Kind
	Dst  int32
	Ins  []int32
}

// decodePlanCode splits plan code back into its ops and the code
// offsets of its run headers. It fails the test on a header whose kind
// is not planned or whose ops overrun the code.
func decodePlanCode(t *testing.T, code []int32) (ops []planOp, hdrs []int) {
	t.Helper()
	for pc := 0; pc < len(code); {
		k, n := Kind(code[pc]>>16), int(code[pc]&maxRunLen)
		if k < KBuf || k > KMux || n == 0 {
			t.Fatalf("pc %d: bad run header %#x", pc, code[pc])
		}
		hdrs = append(hdrs, pc)
		pc++
		stride := 1 + arity(k)
		if pc+n*stride > len(code) {
			t.Fatalf("run of %d %v ops at pc %d overruns %d code words", n, k, pc, len(code))
		}
		for range n {
			ops = append(ops, planOp{pc, k, code[pc], slices.Clone(code[pc+1 : pc+stride])})
			pc += stride
		}
	}
	return ops, hdrs
}

// TestPlanCodeMatchesNetlist decodes a random circuit's plan: every
// planned gate appears exactly once, as its own kind with its own
// inputs, in non-decreasing level order and, within a level, in kind
// order.
func TestPlanCodeMatchesNetlist(t *testing.T) {
	nl := randomSweepCircuit(t, rand.New(rand.NewSource(79)), 12, 400, false)
	ops, hdrs := decodePlanCode(t, nl.Plan().code)
	seen := make(map[int32]bool)
	for i, op := range ops {
		g := nl.Gates[op.Dst]
		if g.Kind != op.Kind || !slices.Equal(op.Ins, g.In[:g.NumIn()]) || seen[op.Dst] {
			t.Fatalf("op %d = %+v, gate %d is %v%v (seen %v)", i, op, op.Dst, g.Kind, g.In, seen[op.Dst])
		}
		seen[op.Dst] = true
		if i > 0 {
			p := ops[i-1]
			if lp, l := nl.level[p.Dst], nl.level[op.Dst]; lp > l || lp == l && p.Kind > op.Kind {
				t.Fatalf("op %d (%v at level %d) follows %v at level %d", i, op.Kind, l, p.Kind, lp)
			}
		}
	}
	planned := 0
	for _, g := range nl.Gates {
		if g.NumIn() > 0 {
			planned++
		}
	}
	if len(seen) != planned || len(hdrs) != nl.Plan().NumRuns() {
		t.Fatalf("%d ops in %d runs, want %d planned gates in %d runs", len(seen), len(hdrs), planned, nl.Plan().NumRuns())
	}
}

// TestPlanCodeSplitsLongRuns gives one level more same-kind gates than
// a run header can count: the group must be emitted as a full run and a
// remainder, counted as one (level, kind) run, and the sweep must still
// agree across widths.
func TestPlanCodeSplitsLongRuns(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	nl := randomSweepCircuit(t, r, 6, 40, true)
	p := nl.Plan()
	_, hdrs := decodePlanCode(t, p.code)
	full := slices.IndexFunc(hdrs, func(pc int) bool { return p.code[pc]&maxRunLen == maxRunLen })
	if full < 0 || full+1 == len(hdrs) || p.code[hdrs[full+1]]>>16 != p.code[hdrs[full]]>>16 {
		t.Fatalf("no full run followed by a remainder of its kind among %d runs", len(hdrs))
	}
	if p.NumRuns() != len(hdrs)-1 {
		t.Fatalf("NumRuns %d, want %d: the split group counts once", p.NumRuns(), len(hdrs)-1)
	}
	assertWidthsAgree(t, nl, r, []int{4, 16})
}

// assertWidthsAgree runs random blocks through nl at width 1 and at
// each of widths, and fails on the first net whose good row differs
// from the width-1 sweep's on the same patterns.
func assertWidthsAgree(t *testing.T, nl *Netlist, r *rand.Rand, widths []int) {
	t.Helper()
	const words = MaxBlockWords
	in := make([]uint64, len(nl.Inputs)*words) // input-major, words per input
	for i := range in {
		in[i] = r.Uint64()
	}
	ref := make([]uint64, len(nl.Gates)*words) // net-major width-1 results
	e1, err := NewEvaluator(nl)
	if err != nil {
		t.Fatal(err)
	}
	blk := make([]uint64, len(nl.Inputs))
	for j := range words {
		for i := range blk {
			blk[i] = in[i*words+j]
		}
		mustRun(t, e1, blk)
		for n := range nl.Gates {
			ref[n*words+j] = e1.good[n]
		}
	}
	for _, w := range widths {
		ew, err := NewEvaluatorWide(nl, w)
		if err != nil {
			t.Fatal(err)
		}
		blk := make([]uint64, len(nl.Inputs)*w)
		for j0 := 0; j0 < words; j0 += w {
			for i := range nl.Inputs {
				copy(blk[i*w:(i+1)*w], in[i*words+j0:])
			}
			mustRun(t, ew, blk)
			for n := range nl.Gates {
				got, want := ew.row(ew.good, int32(n)), ref[n*words+j0:][:w]
				if !slices.Equal(got, want) {
					t.Fatalf("%s W=%d words %d..%d: net %d (%v) %#x, W=1 %#x",
						nl.Name, w, j0, j0+w-1, n, nl.Gates[n].Kind, got, want)
				}
			}
		}
	}
}

// TestPlanCodeRangeChecked hand-corrupts a compiled plan and asserts
// checkPlanCode, which buildPlan runs on every plan before any kernel
// sees it, refuses each corruption: an index outside the gates, a
// destination that is a source, of another kind or written twice, an
// operand read before its gate is written, a planned gate never
// written, a run that overruns the code, and a header that names no
// planned kind or no ops.
func TestPlanCodeRangeChecked(t *testing.T) {
	nl := randomSweepCircuit(t, rand.New(rand.NewSource(89)), 8, 200, false)
	ng := int32(len(nl.Gates))
	code := nl.Plan().code
	if err := checkPlanCode(code, nl.Gates); err != nil {
		t.Fatalf("compiled plan refused: %v", err)
	}
	ops, hdrs := decodePlanCode(t, code)
	first, last := ops[0], ops[len(ops)-1]
	lastHdr := hdrs[len(hdrs)-1]
	set := func(pc int, v int32) []int32 { return slices.Replace(slices.Clone(code), pc, pc+1, v) }
	other := first.Dst // a planned gate of another kind than the first op's
	for _, op := range ops {
		if op.Kind != first.Kind {
			other = op.Dst
			break
		}
	}
	dropLast := slices.Clone(code[:last.PC]) // the plan without its last op
	if code[lastHdr]&maxRunLen == 1 {
		dropLast = dropLast[:lastHdr]
	} else {
		dropLast[lastHdr]--
	}
	dup := append(slices.Clone(code), runHeader(first.Kind, 1), first.Dst)
	dup = append(dup, first.Ins...)
	corrupt := map[string][]int32{
		"destination past the gates":  set(first.PC, ng),
		"negative destination":        set(first.PC, -1),
		"operand past the gates":      set(last.PC+1, ng),
		"negative operand":            set(last.PC+1, -1),
		"source destination":          set(first.PC, nl.Inputs[0]),
		"destination of another kind": set(first.PC, other),
		"destination written twice":   dup,
		"operand read before written": set(first.PC+1, last.Dst),
		"operand is its own op":       set(last.PC+1, last.Dst),
		"gate never written":          dropLast,
		"run overruns the code":       set(lastHdr, code[lastHdr]+1),
		"truncated code":              code[:len(code)-1],
		"source kind":                 set(0, runHeader(KConst1, int(code[0]&maxRunLen))),
		"kind past MUX":               set(0, runHeader(kindCount, int(code[0]&maxRunLen))),
		"kind in the high bits":       set(0, code[0]|1<<24),
		"empty run":                   set(0, runHeader(first.Kind, 0)),
	}
	if other == first.Dst {
		t.Fatal("random circuit has a single planned kind")
	}
	for name, c := range corrupt {
		if err := checkPlanCode(c, nl.Gates); err == nil {
			t.Errorf("%s: checkPlanCode accepted the corrupt plan", name)
		}
	}
}

// FuzzPlanKernel holds the W=16 kernel runPlanCode picks (AVX2 on hosts
// that have it) to the generic evalPlanCode on random circuits with
// every planned kind and, with long set, a same-kind level split at
// maxRunLen. Every row of the good buffer starts random, sources and
// planned gates alike, and the two buffers must agree in full after
// the sweep.
func FuzzPlanKernel(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(6), false)
	f.Add(int64(2), uint16(1500), uint8(30), false)
	f.Add(int64(3), uint16(0), uint8(0), false)
	f.Add(int64(4), uint16(20), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed int64, size uint16, nIn uint8, long bool) {
		if !haveAVX2 {
			t.Skip("no AVX2 plan kernel in this build or on this CPU")
		}
		const w = 16
		r := rand.New(rand.NewSource(seed))
		nl := randomSweepCircuit(t, r, 1+int(nIn)%64, opKinds+int(size)%2048, long)
		code := nl.Plan().code
		oracle := make([]uint64, len(nl.Gates)*w)
		for i := range oracle {
			oracle[i] = r.Uint64()
		}
		got := slices.Clone(oracle)
		evalPlanCode(oracle, code, w)
		runPlanCode(got, code, w)
		if j := firstDiff(got, oracle); j >= 0 {
			t.Fatalf("word %d (net %d, %v) %#x, oracle %#x", j, j/w, nl.Gates[j/w].Kind, got[j], oracle[j])
		}
	})
}
