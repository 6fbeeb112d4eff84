package netlist

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// buildAdder4 returns a 4-bit ripple adder: s = a + b (mod 16), with carry.
func buildAdder4(t testing.TB) *Netlist {
	t.Helper()
	b := NewBuilder("adder4")
	a := b.InputBus("a", 4)
	c := b.InputBus("b", 4)
	carry := b.Const0()
	sum := make([]int32, 4)
	for i := 0; i < 4; i++ {
		axb := b.Xor(a[i], c[i])
		sum[i] = b.Xor(axb, carry)
		carry = b.Or(b.And(a[i], c[i]), b.And(axb, carry))
	}
	b.OutputBus("s", sum)
	b.Output("cout", carry)
	nl, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return nl
}

// mustEval builds a combinational evaluator or fails the test.
func mustEval(t *testing.T, nl *Netlist) *Evaluator {
	t.Helper()
	ev, err := NewEvaluator(nl)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// mustRun runs a pattern block or fails the test.
func mustRun(t *testing.T, ev *Evaluator, inputs []uint64) {
	t.Helper()
	if err := ev.Run(inputs); err != nil {
		t.Fatal(err)
	}
}

// mustEvalOnce evaluates one pattern or fails the test.
func mustEvalOnce(t *testing.T, ev *Evaluator, pattern []bool) []bool {
	t.Helper()
	out, err := ev.EvalOnce(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAdderExhaustive(t *testing.T) {
	nl := buildAdder4(t)
	ev := mustEval(t, nl)
	for a := 0; a < 16; a++ {
		for c := 0; c < 16; c++ {
			in := make([]bool, 8)
			for i := 0; i < 4; i++ {
				in[i] = a>>i&1 == 1
				in[4+i] = c>>i&1 == 1
			}
			out := mustEvalOnce(t, ev, in)
			got := 0
			for i := 0; i < 4; i++ {
				if out[i] {
					got |= 1 << i
				}
			}
			if out[4] {
				got |= 16
			}
			if got != a+c {
				t.Fatalf("%d+%d = %d, want %d", a, c, got, a+c)
			}
		}
	}
}

func TestPackedEvalMatchesSingle(t *testing.T) {
	nl := buildAdder4(t)
	ev := mustEval(t, nl)
	// Pack 64 random patterns and compare with per-pattern evaluation.
	r := rand.New(rand.NewSource(2))
	pat := make([][]bool, 64)
	in := make([]uint64, 8)
	for p := 0; p < 64; p++ {
		pat[p] = make([]bool, 8)
		for i := range pat[p] {
			pat[p][i] = r.Intn(2) == 1
			if pat[p][i] {
				in[i] |= 1 << uint(p)
			}
		}
	}
	mustRun(t, ev, in)
	packed := make([]uint64, 5)
	for i := 0; i < 5; i++ {
		packed[i] = ev.Output(i)
	}
	ev2 := mustEval(t, nl)
	for p := 0; p < 64; p++ {
		out := mustEvalOnce(t, ev2, pat[p])
		for i := 0; i < 5; i++ {
			if got := packed[i]>>uint(p)&1 == 1; got != out[i] {
				t.Fatalf("pattern %d output %d: packed %v != single %v", p, i, got, out[i])
			}
		}
	}
}

// bruteFaultDetect evaluates the faulty circuit by rebuilding gate values
// with the fault forced, without cone restriction — the oracle for
// FaultDetect.
func bruteFaultDetect(nl *Netlist, inputs []uint64, f FaultSite) uint64 {
	good := make([]uint64, len(nl.Gates))
	bad := make([]uint64, len(nl.Gates))
	evalAll := func(vals []uint64, faulty bool) {
		for i, net := range nl.Inputs {
			vals[net] = inputs[i]
		}
		for _, id := range nl.order {
			g := nl.Gates[id]
			var v uint64
			switch g.Kind {
			case KInput:
				v = vals[id]
			case KConst0:
				v = 0
			case KConst1:
				v = ^uint64(0)
			default:
				var pins [3]uint64
				for p := 0; p < g.NumIn(); p++ {
					pins[p] = vals[g.In[p]]
					if faulty && id == f.Gate && int8(p) == f.Pin {
						if f.SA1 {
							pins[p] = ^uint64(0)
						} else {
							pins[p] = 0
						}
					}
				}
				v = gateFn(g.Kind, pins[0], pins[1], pins[2])
			}
			if faulty && id == f.Gate && f.Pin < 0 {
				if f.SA1 {
					v = ^uint64(0)
				} else {
					v = 0
				}
			}
			vals[id] = v
		}
	}
	evalAll(good, false)
	evalAll(bad, true)
	var det uint64
	for _, o := range nl.Outputs {
		det |= good[o] ^ bad[o]
	}
	return det
}

func TestFaultDetectMatchesBruteForce(t *testing.T) {
	nl := buildAdder4(t)
	ev := mustEval(t, nl)
	r := rand.New(rand.NewSource(9))
	inputs := make([]uint64, 8)
	for i := range inputs {
		inputs[i] = r.Uint64()
	}
	mustRun(t, ev, inputs)
	for gid := int32(0); gid < int32(len(nl.Gates)); gid++ {
		g := nl.Gates[gid]
		pins := []int8{-1}
		for p := 0; p < g.NumIn(); p++ {
			pins = append(pins, int8(p))
		}
		for _, pin := range pins {
			for _, sa1 := range []bool{false, true} {
				f := FaultSite{Gate: gid, Pin: pin, SA1: sa1}
				got := ev.FaultDetect(f)
				want := bruteFaultDetect(nl, inputs, f)
				if got != want {
					t.Fatalf("fault %v: got %#x, want %#x", f, got, want)
				}
			}
		}
	}
}

func TestFaultDetectRepeatedCalls(t *testing.T) {
	// Epoch reuse must not leak faulty values between calls.
	nl := buildAdder4(t)
	ev := mustEval(t, nl)
	inputs := []uint64{5, 9, 0xff, 0, 1, 2, 3, 4}
	mustRun(t, ev, inputs)
	f := FaultSite{Gate: nl.Outputs[0], Pin: -1, SA1: true}
	first := ev.FaultDetect(f)
	for i := 0; i < 10; i++ {
		if got := ev.FaultDetect(f); got != first {
			t.Fatalf("call %d: %#x != %#x", i, got, first)
		}
	}
	// Interleave with other faults.
	other := FaultSite{Gate: nl.Outputs[1], Pin: -1, SA1: false}
	ev.FaultDetect(other)
	if got := ev.FaultDetect(f); got != first {
		t.Fatalf("after interleave: %#x != %#x", got, first)
	}
}

func TestFaultOnMuxCircuit(t *testing.T) {
	b := NewBuilder("mux")
	s := b.Input("s")
	a := b.Input("a")
	c := b.Input("c")
	b.Output("y", b.Mux(s, a, c))
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ev := mustEval(t, nl)
	// s=0 selects a; s=1 selects c. Patterns: bit0: s=0,a=1,c=0; bit1: s=1,a=0,c=1.
	ev.Run([]uint64{0b10, 0b01, 0b10})
	if got := ev.Output(0); got != 0b11 {
		t.Fatalf("mux good output = %#b, want 0b11", got)
	}
	// Stuck sel at 0: pattern 1 now selects a=0 → detected on pattern 1.
	det := ev.FaultDetect(FaultSite{Gate: nl.Gates[nl.Outputs[0]].In[0], Pin: -1, SA1: false})
	if det != 0b10 {
		t.Fatalf("sel/sa0 detect = %#b, want 0b10", det)
	}
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder("bad")
	b.Input("a")
	if _, err := b.Build(); err == nil {
		t.Error("netlist with no outputs accepted")
	}

	b2 := NewBuilder("bad2")
	x := b2.Input("a")
	b2.Output("y", x+100) // dangling net id
	if _, err := b2.Build(); err == nil {
		t.Error("dangling output accepted")
	}
}

func TestLevelization(t *testing.T) {
	nl := buildAdder4(t)
	// Every gate's level must exceed its fan-ins' levels.
	for id, g := range nl.Gates {
		for p := 0; p < g.NumIn(); p++ {
			if nl.Level(g.In[p]) >= nl.Level(int32(id)) {
				t.Fatalf("gate %d level %d <= input level %d", id,
					nl.Level(int32(id)), nl.Level(g.In[p]))
			}
		}
	}
	if nl.Levels() <= 0 {
		t.Error("zero depth")
	}
	if nl.NumGates() <= 0 || nl.NumNets() <= nl.NumGates() {
		t.Errorf("gates=%d nets=%d", nl.NumGates(), nl.NumNets())
	}
}

func TestTreeReducers(t *testing.T) {
	b := NewBuilder("trees")
	in := b.InputBus("x", 7)
	b.Output("and", b.AndN(in...))
	b.Output("or", b.OrN(in...))
	b.Output("xor", b.XorN(in...))
	b.Output("and0", b.AndN())
	b.Output("or0", b.OrN())
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ev := mustEval(t, nl)
	for v := 0; v < 128; v++ {
		in := make([]bool, 7)
		ones := 0
		for i := 0; i < 7; i++ {
			in[i] = v>>i&1 == 1
			if in[i] {
				ones++
			}
		}
		out := mustEvalOnce(t, ev, in)
		if out[0] != (ones == 7) || out[1] != (ones > 0) || out[2] != (ones%2 == 1) {
			t.Fatalf("v=%d: and=%v or=%v xor=%v", v, out[0], out[1], out[2])
		}
		if !out[3] || out[4] {
			t.Fatal("empty reducers wrong")
		}
	}
}

func TestFaultSiteString(t *testing.T) {
	if s := (FaultSite{Gate: 3, Pin: -1, SA1: true}).String(); s != "g3.out/sa1" {
		t.Errorf("got %q", s)
	}
	if s := (FaultSite{Gate: 7, Pin: 1, SA1: false}).String(); s != "g7.in1/sa0" {
		t.Errorf("got %q", s)
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); int(k) < NumKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

// TestEvaluatorFreeList checks that released evaluators survive garbage
// collection, so a campaign that collects between simulations still
// reuses its warm evaluators, and that each width keeps at most
// GOMAXPROCS of them.
func TestEvaluatorFreeList(t *testing.T) {
	nl := buildAdder4(t)
	ev, err := nl.AcquireEvaluator(4)
	if err != nil {
		t.Fatal(err)
	}
	nl.ReleaseEvaluator(ev)
	runtime.GC()
	runtime.GC()
	if got, err := nl.AcquireEvaluator(4); err != nil || got != ev {
		t.Fatalf("after two GCs Acquire returned %p (err %v), want the released %p", got, err, ev)
	}
	if got, err := nl.AcquireEvaluator(8); err != nil || got == ev || got.BlockWords() != 8 {
		t.Fatalf("Acquire(8) returned %p of width %d (err %v), want a fresh width-8 evaluator", got, got.BlockWords(), err)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	evs := make([]*Evaluator, 5)
	for i := range evs {
		if evs[i], err = nl.AcquireEvaluator(2); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range evs {
		nl.ReleaseEvaluator(e)
	}
	if n := len(nl.evFree[1]); n != 3 {
		t.Fatalf("free list holds %d width-2 evaluators after 5 releases, want the cap of 3", n)
	}
	for i := 0; i < 3; i++ {
		if got, _ := nl.AcquireEvaluator(2); got != evs[2-i] {
			t.Fatalf("Acquire %d returned %p, want the kept %p", i, got, evs[2-i])
		}
	}
}

// TestEvaluatorFreeListConcurrent acquires and releases evaluators from
// several goroutines at once, as the fault engine's workers do: no
// evaluator may be handed to two holders at a time, and the free list
// never exceeds its cap.
func TestEvaluatorFreeListConcurrent(t *testing.T) {
	nl := buildAdder4(t)
	const workers, rounds = 4, 200
	var mu sync.Mutex
	held := map[*Evaluator]bool{}
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ev, err := nl.AcquireEvaluator(1 + i%2)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				dup := held[ev]
				held[ev] = true
				mu.Unlock()
				if dup {
					t.Errorf("evaluator %p handed out twice", ev)
					return
				}
				mu.Lock()
				delete(held, ev)
				mu.Unlock()
				nl.ReleaseEvaluator(ev)
			}
		}()
	}
	wg.Wait()
	for w, free := range nl.evFree {
		if len(free) > runtime.GOMAXPROCS(0) {
			t.Fatalf("width %d keeps %d evaluators, over the cap of %d", w+1, len(free), runtime.GOMAXPROCS(0))
		}
	}
}
