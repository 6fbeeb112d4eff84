package netlist

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// bruteDetSupp computes a gate's detection support with an independent
// recursive reachability: outputs reachable from g via fanout, then the
// union of their input cones via fan-in recursion.
func bruteDetSupp(nl *Netlist, gate int32) (support map[int32]bool, firstOut int32) {
	reached := map[int32]bool{gate: true}
	stack := []int32{gate}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range nl.Fanout(id) {
			if !reached[c] {
				reached[c] = true
				stack = append(stack, c)
			}
		}
	}
	isInput := map[int32]bool{}
	for _, in := range nl.Inputs {
		isInput[in] = true
	}
	support = map[int32]bool{}
	var fanin func(id int32, seen map[int32]bool)
	fanin = func(id int32, seen map[int32]bool) {
		if seen[id] {
			return
		}
		seen[id] = true
		if isInput[id] {
			support[id] = true
		}
		g := nl.Gates[id]
		for p := 0; p < g.NumIn(); p++ {
			fanin(g.In[p], seen)
		}
	}
	firstOut = -1
	for oi, o := range nl.Outputs {
		if reached[o] {
			if firstOut < 0 {
				firstOut = int32(oi)
			}
			fanin(o, map[int32]bool{})
		}
	}
	return support, firstOut
}

// TestConeMatchesBruteForce checks DetSupp and FirstOut on random
// circuits against the recursive reachability oracle.
func TestConeMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		nl := randomCircuit(t, r, 4+r.Intn(10), 20+r.Intn(120))
		ci := nl.Cone()
		inPos := map[int32]int{}
		for i, net := range nl.Inputs {
			inPos[net] = i
		}
		for gid := range nl.Gates {
			want, wantFirst := bruteDetSupp(nl, int32(gid))
			if got := ci.FirstOut(int32(gid)); got != wantFirst {
				t.Fatalf("trial %d gate %d: FirstOut %d want %d", trial, gid, got, wantFirst)
			}
			row := ci.DetSupp(int32(gid))
			for net, i := range inPos {
				got := row[i/64]>>uint(i%64)&1 == 1
				if got != want[net] {
					t.Fatalf("trial %d gate %d input %d (net %d): in support %v want %v",
						trial, gid, i, net, got, want[net])
				}
			}
			if got, want := ci.SupportSize(int32(gid)), len(want); got != want {
				t.Fatalf("trial %d gate %d: SupportSize %d want %d", trial, gid, got, want)
			}
		}
	}
}

// TestConeSkipInvariant checks the property the fault simulator's
// cone-skip relies on: changing only inputs outside a gate's detection
// support changes neither the fault's activation nor its detection mask.
func TestConeSkipInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		nl := randomCircuit(t, r, 6+r.Intn(8), 30+r.Intn(120))
		ci := nl.Cone()
		ev := mustEval(t, nl)
		base := make([]uint64, len(nl.Inputs))
		for i := range base {
			base[i] = r.Uint64()
		}
		for probe := 0; probe < 30; probe++ {
			f := randomFault(r, nl)
			gid := f.Gate

			mustRun(t, ev, base)
			wantDelta := ev.SiteDelta(f)
			wantDet := ev.FaultDetect(f)

			// Scramble every input outside the detection support.
			row := ci.DetSupp(gid)
			mutated := append([]uint64(nil), base...)
			for i := range mutated {
				if row[i/64]>>uint(i%64)&1 == 0 {
					mutated[i] = r.Uint64()
				}
			}
			mustRun(t, ev, mutated)
			// SiteDelta invariance holds only for gates that reach an
			// output (fsupp(g) ⊆ dsupp(g) needs a reachable output);
			// elsewhere the cone-skip relies solely on detection staying 0.
			if got := ev.SiteDelta(f); ci.FirstOut(gid) >= 0 && got != wantDelta {
				t.Fatalf("trial %d fault %v: SiteDelta changed %#x -> %#x on out-of-cone input change",
					trial, f, wantDelta, got)
			}
			if got := ev.FaultDetect(f); got != wantDet {
				t.Fatalf("trial %d fault %v: detection changed %#x -> %#x on out-of-cone input change",
					trial, f, wantDet, got)
			}
		}
	}
}

// TestSiteDeltaSubset checks that SiteDelta==0 implies no detection and
// that the detection mask is always a bitwise subset of the site delta —
// the two facts the activation pre-screen rests on.
func TestSiteDeltaSubset(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for trial := 0; trial < 10; trial++ {
		nl := randomCircuit(t, r, 4+r.Intn(10), 30+r.Intn(150))
		ev := mustEval(t, nl)
		inputs := make([]uint64, len(nl.Inputs))
		for i := range inputs {
			inputs[i] = r.Uint64()
		}
		mustRun(t, ev, inputs)
		for probe := 0; probe < 60; probe++ {
			f := randomFault(r, nl)
			delta := ev.SiteDelta(f)
			det := ev.FaultDetect(f)
			if det&^delta != 0 {
				t.Fatalf("trial %d fault %v: detection %#x not a subset of delta %#x", trial, f, det, delta)
			}
		}
	}
}

// randomFault draws a random output or input-pin stuck-at fault.
func randomFault(r *rand.Rand, nl *Netlist) FaultSite {
	gid := int32(r.Intn(len(nl.Gates)))
	pin := int8(-1)
	if n := nl.Gates[gid].NumIn(); n > 0 && r.Intn(2) == 0 {
		pin = int8(r.Intn(n))
	}
	return FaultSite{Gate: gid, Pin: pin, SA1: r.Intn(2) == 1}
}

// withConeBudget sets a fresh netlist's stem-cone cache budget.
func withConeBudget(nl *Netlist, budget int64) *Netlist {
	nl.stemOnce.Do(nl.initStemCones)
	nl.stems.budget.Store(budget)
	return nl
}

// coneWordsTotal returns the summed compiled size (code and output
// words) of every fan-out stem's cone: the budget that would cache them
// all.
func coneWordsTotal(nl *Netlist) int64 {
	var scr coneScratch
	var total int64
	for g := range nl.Gates {
		if len(nl.fanout[g]) > 1 {
			sc := nl.compileStemCone(int32(g), &scr)
			total += int64(len(sc.Code) + len(sc.Outs))
		}
	}
	return total
}

// conesCached counts the filled stems whose cone the cache holds and
// those compiled into evaluator scratch instead. Output stems are never
// filled; stems that reach no output have empty cones.
func conesCached(nl *Netlist) (cached, scratch int) {
	for g := range nl.Gates {
		if len(nl.fanout[g]) < 2 || nl.Cone().FirstOut(int32(g)) < 0 || slices.Contains(nl.Outputs, int32(g)) {
			continue
		}
		if nl.stems.slots[g].cone != nil {
			cached++
		} else {
			scratch++
		}
	}
	return cached, scratch
}

// checkObsFactors asserts the exact factorization the shard walker's
// detection path relies on, for W-word evaluators over nls — twins of
// one circuit under different stem-cone budgets. On random blocks, word
// j of every evaluator's ObsW row equals the detection mask of an
// all-ones flip of the gate on word j alone, taken as
// FaultDetect(sa0)|FaultDetect(sa1) on a width-1 reference evaluator
// loaded with that word, and for random faults SiteDelta&ObsW equals
// FaultDetect word by word. Rows are memoized per block, so every gate
// is probed twice (cold and warm) and across blocks to catch stale-memo
// bugs.
func checkObsFactors(t *testing.T, r *rand.Rand, nls []*Netlist, w, blocks int) {
	t.Helper()
	nl := nls[0]
	evs := make([]*Evaluator, len(nls))
	for i, n := range nls {
		ev, err := NewEvaluatorWide(n, w)
		if err != nil {
			t.Fatal(err)
		}
		evs[i] = ev
	}
	refs := make([]*Evaluator, w) // word j's reference; never touched by ObsW
	for j := range refs {
		refs[j] = mustEval(t, nl)
	}
	inputs := make([]uint64, len(nl.Inputs)*w)
	word := make([]uint64, len(nl.Inputs))
	for block := 0; block < blocks; block++ {
		for i := range inputs {
			inputs[i] = r.Uint64()
		}
		for _, ev := range evs {
			mustRun(t, ev, inputs)
		}
		for j, ref := range refs {
			for i := range word {
				word[i] = inputs[i*w+j]
			}
			mustRun(t, ref, word)
		}
		for round := 0; round < 2; round++ {
			for gid := range nl.Gates {
				g := int32(gid)
				for j, ref := range refs {
					want := ref.FaultDetect(FaultSite{Gate: g, Pin: -1}) |
						ref.FaultDetect(FaultSite{Gate: g, Pin: -1, SA1: true})
					for i, ev := range evs {
						if got := ev.ObsW(g)[j]; got != want {
							t.Fatalf("W=%d evaluator %d block %d round %d gate %d word %d: ObsW %#x want %#x",
								w, i, block, round, g, j, got, want)
						}
					}
				}
			}
		}
		for probe := 0; probe < 60; probe++ {
			f := randomFault(r, nl)
			for j, ref := range refs {
				want := ref.FaultDetect(f)
				for i, ev := range evs {
					if got := ref.SiteDelta(f) & ev.ObsW(f.Gate)[j]; got != want {
						t.Fatalf("W=%d evaluator %d block %d fault %v word %d: delta&ObsW %#x want %#x",
							w, i, block, f, j, got, want)
					}
				}
			}
		}
	}
}

// TestObsFactorsDetection checks the ObsW factorization at W=1, at the
// generic widths 4 and 8 (8 is the auto width of 257–512-pattern
// streams) and at W=16, which runs the AVX2 kernel on hosts that have
// it (the generic evalStemCode elsewhere and under -tags purego), on
// three twins of each random circuit: one whose cone
// budget caches every stem, one whose budget is spent so every stem
// compiles into evaluator scratch on each fill, and one whose budget
// admits only some stems, so cached and scratch cones interleave in one
// block and share one scratch.
func TestObsFactorsDetection(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	var partialCached, partialScratch int
	for trial := 0; trial < 10; trial++ {
		seed, nIn, nGates := r.Int63(), 4+r.Intn(10), 30+r.Intn(150)
		build := func() *Netlist { return randomCircuit(t, rand.New(rand.NewSource(seed)), nIn, nGates) }
		total := coneWordsTotal(build())
		for _, w := range []int{1, 4, 8, 16} {
			partial := withConeBudget(build(), total/2)
			nls := []*Netlist{build(), withConeBudget(build(), 0), partial}
			checkObsFactors(t, r, nls, w, 2)
			c, s := conesCached(partial)
			partialCached += c
			partialScratch += s
		}
	}
	if partialCached == 0 || partialScratch == 0 {
		t.Fatalf("partial budget cached %d and scratch-compiled %d stems; want both", partialCached, partialScratch)
	}
}

// TestObsConcurrentPartialBudget fills observability rows from several
// goroutines at once, each with its own evaluator, over one netlist whose
// budget caches only some stems: the shared cache compiles each stem
// once while over-budget stems compile into every evaluator's own
// scratch. Every row must match a fully cached twin's.
func TestObsConcurrentPartialBudget(t *testing.T) {
	const w, workers = 4, 4
	r := rand.New(rand.NewSource(67))
	build := func() *Netlist { return randomCircuit(t, rand.New(rand.NewSource(67)), 10, 200) }
	ref, err := NewEvaluatorWide(build(), w)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]uint64, len(ref.nl.Inputs)*w)
	for i := range inputs {
		inputs[i] = r.Uint64()
	}
	mustRun(t, ref, inputs)
	want := make([][]uint64, len(ref.nl.Gates))
	for g := range want {
		want[g] = slices.Clone(ref.ObsW(int32(g)))
	}

	nl := withConeBudget(build(), coneWordsTotal(ref.nl)/2)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		ev, err := NewEvaluatorWide(nl, w)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if err := ev.Run(inputs); err != nil {
				t.Error(err)
				return
			}
			for i := range want {
				g := (i + k*len(want)/workers) % len(want) // workers start at different stems
				if got := ev.ObsW(int32(g)); !slices.Equal(got, want[g]) {
					t.Errorf("worker %d gate %d: ObsW %#x want %#x", k, g, got, want[g])
					return
				}
			}
		}(k)
	}
	wg.Wait()
	if c, s := conesCached(nl); c == 0 || s == 0 {
		t.Fatalf("partial budget cached %d and scratch-compiled %d stems; want both", c, s)
	}
}

// FuzzObsFactors fuzzes the budget split: a random circuit, a cone
// budget anywhere from nothing to every stem cached, and a block width
// of 1, 4, 8 or 16, checked against a fully cached twin.
func FuzzObsFactors(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(80), uint8(0), uint8(0))
	f.Add(int64(2), uint8(12), uint8(150), uint8(128), uint8(1))
	f.Add(int64(3), uint8(4), uint8(40), uint8(255), uint8(2))
	f.Add(int64(4), uint8(9), uint8(200), uint8(60), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nIn, nGates, budget, wSel uint8) {
		build := func() *Netlist {
			return randomCircuit(t, rand.New(rand.NewSource(seed)), 1+int(nIn)%16, 13+int(nGates))
		}
		nl := build()
		b := coneWordsTotal(nl) * int64(budget) / 255
		nls := []*Netlist{build(), withConeBudget(nl, b)}
		checkObsFactors(t, rand.New(rand.NewSource(seed)), nls, []int{1, 4, 8, 16}[wSel%4], 2)
	})
}

// TestObsEpochWrap forces the uint32 wrap of the per-block memo epoch
// and asserts Run drops every memoized mask.
func TestObsEpochWrap(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	nl := randomCircuit(t, r, 8, 120)
	ev := mustEval(t, nl)
	inputs := make([]uint64, len(nl.Inputs))
	for i := range inputs {
		inputs[i] = r.Uint64()
	}
	mustRun(t, ev, inputs)
	want := make([]uint64, len(nl.Gates))
	for gid := range nl.Gates {
		want[gid] = ev.ObsW(int32(gid))[0]
	}

	// Poison: every gate claims a memoized garbage mask in the epoch the
	// wrap restarts at (1). Run must still invalidate all of them.
	for i := range ev.obsStamp {
		ev.obsStamp[i] = 1
		ev.obsVal[i] = r.Uint64()
	}
	ev.obsEpoch = math.MaxUint32 // next Run increments to 0 -> wrap
	mustRun(t, ev, inputs)
	for gid := range nl.Gates {
		if got := ev.ObsW(int32(gid))[0]; got != want[gid] {
			t.Fatalf("gate %d after obs epoch wrap: got %#x want %#x", gid, got, want[gid])
		}
	}
}
