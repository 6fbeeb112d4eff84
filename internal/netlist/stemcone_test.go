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

// TestStemCodeRangeChecked hand-corrupts compiled cone code and asserts
// checkStemCode, which compileStemCone runs on every cone before any
// kernel sees it, refuses each corruption: an operand slot outside the
// combined buffer, a run whose operands overrun the code, an op count
// that writes past the last faulty slot, and a header that names no
// cone kind or no ops.
func TestStemCodeRangeChecked(t *testing.T) {
	nl := randomCircuit(t, rand.New(rand.NewSource(73)), 8, 200)
	ng := len(nl.Gates)
	var scr coneScratch
	var code []int32
	for g := range nl.Gates {
		if c := nl.compileStemCone(int32(g), &scr).Code; len(nl.fanout[g]) > 1 && len(c) > len(code) {
			code = slices.Clone(c)
		}
	}
	ops, runs := decodeStemCode(t, code)
	if len(runs) < 2 {
		t.Fatalf("largest cone has %d runs, want at least 2", len(runs))
	}
	if err := checkStemCode(code, ng); err != nil {
		t.Fatalf("compiled cone refused: %v", err)
	}
	// padded appends BUF ops reading faulty slot 0 until the cone has
	// total ops.
	padded := func(total int) []int32 {
		c := append(slices.Clone(code), runHeader(KBuf, total-len(ops)))
		for range total - len(ops) {
			c = append(c, int32(ng))
		}
		return c
	}
	if err := checkStemCode(padded(ng-1), ng); err != nil {
		t.Fatalf("cone writing exactly up to the last faulty slot refused: %v", err)
	}
	last := len(code) - 1                                           // an operand of the last op
	lastHdr := last - runs[len(runs)-1]*arity(ops[len(ops)-1].Kind) // the last run's header
	corrupt := map[string][]int32{
		"slot past the buffer":   slices.Replace(slices.Clone(code), last, last+1, int32(2*ng)),
		"negative slot":          slices.Replace(slices.Clone(code), last, last+1, -1),
		"run overruns the code":  slices.Replace(slices.Clone(code), lastHdr, lastHdr+1, code[lastHdr]+1),
		"truncated code":         code[:last],
		"ops past the last slot": padded(ng),
		"source kind":            slices.Replace(slices.Clone(code), 0, 1, runHeader(KInput, 1)),
		"kind past MUX":          slices.Replace(slices.Clone(code), 0, 1, runHeader(kindCount, 1)),
		"kind in the high bits":  slices.Replace(slices.Clone(code), 0, 1, code[0]|1<<24),
		"empty run":              slices.Replace(slices.Clone(code), 0, 1, runHeader(KAnd, 0)),
	}
	for name, c := range corrupt {
		if err := checkStemCode(c, ng); err == nil {
			t.Errorf("%s: checkStemCode accepted the corrupt cone", name)
		}
	}
}

// randomStemCode returns random cone code for a netlist of ng gates and
// the code offset of each run header: nRuns runs of random kinds and
// lengths, each operand a random good or faulty slot. With long set,
// the code starts with a maxRunLen run split off a longer same-kind
// group, as emitStemCone splits one. The code passes checkStemCode.
func randomStemCode(r *rand.Rand, ng, nRuns int, long bool) (code []int32, starts []int) {
	ops := 0
	emit := func(k Kind, n int) {
		starts = append(starts, len(code))
		code = append(code, runHeader(k, n))
		for range n * arity(k) {
			code = append(code, int32(r.Intn(2*ng)))
		}
		ops += n
	}
	if long {
		k := KBuf + Kind(r.Intn(opKinds))
		emit(k, maxRunLen)
		emit(k, 1+r.Intn(7))
	}
	for range nRuns {
		if left := ng - 1 - ops; left > 0 {
			emit(KBuf+Kind(r.Intn(opKinds)), 1+r.Intn(min(left, 24)))
		}
	}
	return code, starts
}

// FuzzStemKernel holds the W=16 kernel runStemCode picks (AVX2 on hosts
// that have it) to the generic evalStemCode on random code over random
// buffers: every cone kind, good and faulty operand slots anywhere in
// the buffer, and runs split at maxRunLen. The two buffers must agree
// in full after every run, and one whole-code call, the way stemObsW
// runs a cone, must end where the run-by-run oracle does.
func FuzzStemKernel(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(12), false)
	f.Add(int64(2), uint16(700), uint8(31), false)
	f.Add(int64(3), uint16(0), uint8(1), false)
	f.Add(int64(4), uint16(20), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed int64, size uint16, nRuns uint8, long bool) {
		if !haveAVX2 {
			t.Skip("no AVX2 stem kernel in this build or on this CPU")
		}
		const w = 16
		r := rand.New(rand.NewSource(seed))
		ng := 2 + int(size)%1024
		if long {
			ng += maxRunLen + 8
		}
		code, starts := randomStemCode(r, ng, 1+int(nRuns)%32, long)
		if err := checkStemCode(code, ng); err != nil {
			t.Fatalf("random code refused: %v", err)
		}
		oracle := make([]uint64, 2*ng*w)
		for i := range oracle {
			oracle[i] = r.Uint64()
		}
		perRun, whole := slices.Clone(oracle), slices.Clone(oracle)
		dst := (ng + 1) * w
		runStemCode(whole, code, dst, w)
		for i, pc := range starts {
			end := len(code)
			if i+1 < len(starts) {
				end = starts[i+1]
			}
			evalStemCode(oracle, code[pc:end], dst, w)
			runStemCode(perRun, code[pc:end], dst, w)
			if j := firstDiff(perRun, oracle); j >= 0 {
				t.Fatalf("run %d (%v ×%d): word %d (row %d) %#x, oracle %#x",
					i, Kind(code[pc]>>16), code[pc]&maxRunLen, j, j/w, perRun[j], oracle[j])
			}
			dst += int(code[pc]&maxRunLen) * w
		}
		if j := firstDiff(whole, oracle); j >= 0 {
			t.Fatalf("whole-code call: word %d (row %d) %#x, oracle %#x", j, j/w, whole[j], oracle[j])
		}
	})
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []uint64) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
