package netlist

import (
	"math/rand"
	"slices"
	"testing"
)

// stemOp is one decoded cone op: its kind and operand slots.
type stemOp struct {
	Kind Kind
	Ops  []int32
}

// decodeStemCode splits compiled cone code back into its ops and the
// lengths of its runs. It fails the test on a header whose kind is not
// a cone kind or whose operands overrun the code.
func decodeStemCode(t *testing.T, code []int32) (ops []stemOp, runs []int) {
	t.Helper()
	for pc := 0; pc < len(code); {
		k, n := Kind(code[pc]>>16), int(code[pc]&maxRunLen)
		if k < KBuf || k > KMux || n == 0 {
			t.Fatalf("pc %d: bad run header %#x", pc, code[pc])
		}
		pc++
		a := arity(k)
		if pc+n*a > len(code) {
			t.Fatalf("run of %d %v ops at pc %d overruns %d code words", n, k, pc, len(code))
		}
		for range n {
			ops = append(ops, stemOp{k, slices.Clone(code[pc : pc+a])})
			pc += a
		}
		runs = append(runs, n)
	}
	return ops, runs
}

// TestStemCodeEveryKind compiles a stem that feeds one gate of every
// cone kind, plus a second level reading two of them, and decodes the
// code back: ops come level by level, grouped by kind in kind order;
// the stem reads as faulty slot 0, the i-th op's row as faulty slot
// i+1, and every other operand as its good net.
func TestStemCodeEveryKind(t *testing.T) {
	b := NewBuilder("kinds")
	x, y, z := b.Input("x"), b.Input("y"), b.Input("z")
	s := b.And(x, y) // the stem
	// Declared out of kind order, so the emitter has to group them.
	mux := b.Mux(s, y, z)
	xnor := b.Xnor(z, s)
	buf := b.Buf(s)
	not := b.Not(s)
	and := b.And(s, z)
	or := b.Or(y, s)
	xor := b.Xor(s, x)
	nand := b.Nand(s, s)
	nor := b.Nor(s, z)
	top := b.Or(buf, not) // level 3, both operands in the cone
	mix := b.And(xor, x)  // level 3, one operand in the cone
	for _, o := range []int32{mux, xnor, and, or, nand, nor, top, mix} {
		b.Output("o", o)
	}
	b.Output("s", s)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ng := int32(len(nl.Gates))
	var scr coneScratch
	sc := nl.compileStemCone(s, &scr)
	ops, runs := decodeStemCode(t, sc.Code)

	f := func(k int32) int32 { return ng + k } // faulty slot k
	want := []stemOp{
		{KBuf, []int32{f(0)}},        // slot 1
		{KNot, []int32{f(0)}},        // slot 2
		{KAnd, []int32{f(0), z}},     // slot 3
		{KOr, []int32{y, f(0)}},      // slot 4
		{KXor, []int32{f(0), x}},     // slot 5
		{KNand, []int32{f(0), f(0)}}, // slot 6
		{KNor, []int32{f(0), z}},     // slot 7
		{KXnor, []int32{z, f(0)}},    // slot 8
		{KMux, []int32{f(0), y, z}},  // slot 9
		{KAnd, []int32{f(5), x}},     // slot 10: mix
		{KOr, []int32{f(1), f(2)}},   // slot 11: top
	}
	if !slices.EqualFunc(ops, want, func(a, b stemOp) bool { return a.Kind == b.Kind && slices.Equal(a.Ops, b.Ops) }) {
		t.Fatalf("decoded ops\n got %v\nwant %v", ops, want)
	}
	if !slices.Equal(runs, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}) {
		t.Fatalf("run lengths %v, want one op per run", runs)
	}
	wantOuts := []int32{and, f(3), or, f(4), nand, f(6), nor, f(7), xnor, f(8), mux, f(9), mix, f(10), top, f(11), s, f(0)}
	if !slices.Equal(sc.Outs, wantOuts) {
		t.Fatalf("outs %v, want %v", sc.Outs, wantOuts)
	}
}

// TestStemCodeSplitsLongRuns gives one stem more same-kind consumers on
// one level than a run header can count: the group must be emitted as
// a full run and a remainder, and the fill must still match the
// reference.
func TestStemCodeSplitsLongRuns(t *testing.T) {
	const fan = maxRunLen + 7
	b := NewBuilder("wide")
	x, y := b.Input("x"), b.Input("y")
	s := b.Xor(x, y)
	leaves := make([]int32, fan)
	for i := range leaves {
		leaves[i] = b.Nand(s, y)
	}
	b.Output("o", b.OrN(leaves...))
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var scr coneScratch
	ops, runs := decodeStemCode(t, nl.compileStemCone(s, &scr).Code)
	if runs[0] != maxRunLen || runs[1] != fan-maxRunLen {
		t.Fatalf("first runs %v, want %d then %d", runs[:2], maxRunLen, fan-maxRunLen)
	}
	for i, op := range ops[:fan] {
		if op.Kind != KNand || op.Ops[0] != int32(len(nl.Gates)) || op.Ops[1] != y {
			t.Fatalf("op %d = %v, want NAND of faulty slot 0 and net %d", i, op, y)
		}
	}
	ev := mustEval(t, nl)
	mustRun(t, ev, []uint64{0x0123456789abcdef, 0xfedcba9876543210})
	want := ev.FaultDetect(FaultSite{Gate: s, Pin: -1}) | ev.FaultDetect(FaultSite{Gate: s, Pin: -1, SA1: true})
	if got := ev.ObsW(s)[0]; got != want {
		t.Fatalf("ObsW %#x, want %#x", got, want)
	}
}

// TestStemCodeCachedMatchesScratch compiles every stem of random
// circuits once into a netlist's cache and once into evaluator scratch
// on a twin with no budget: both must produce the same code and
// outputs.
func TestStemCodeCachedMatchesScratch(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 10; trial++ {
		seed, nIn, nGates := r.Int63(), 4+r.Intn(10), 30+r.Intn(300)
		build := func() *Netlist { return randomCircuit(t, rand.New(rand.NewSource(seed)), nIn, nGates) }
		cached, scratch := build(), withConeBudget(build(), 0)
		var cs, ss coneScratch
		for g := range cached.Gates {
			if len(cached.fanout[g]) < 2 {
				continue
			}
			c := cached.stemCone(int32(g), &cs)
			s := scratch.stemCone(int32(g), &ss)
			if c == s || c == &cs.cone {
				t.Fatalf("trial %d stem %d: cached cone aliases evaluator scratch", trial, g)
			}
			if !slices.Equal(c.Code, s.Code) || !slices.Equal(c.Outs, s.Outs) {
				t.Fatalf("trial %d stem %d: cached code %v outs %v, scratch code %v outs %v",
					trial, g, c.Code, c.Outs, s.Code, s.Outs)
			}
		}
		if n, _ := conesCached(scratch); n != 0 {
			t.Fatalf("trial %d: zero budget cached %d stems", trial, n)
		}
	}
}
