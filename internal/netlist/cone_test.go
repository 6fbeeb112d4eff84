package netlist

import (
	"math"
	"math/rand"
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
		if g.Kind == KDFF {
			return
		}
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
			gid := int32(r.Intn(len(nl.Gates)))
			g := nl.Gates[gid]
			pin := int8(-1)
			if n := g.NumIn(); n > 0 && r.Intn(2) == 0 {
				pin = int8(r.Intn(n))
			}
			f := FaultSite{Gate: gid, Pin: pin, SA1: r.Intn(2) == 1}

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
			gid := int32(r.Intn(len(nl.Gates)))
			g := nl.Gates[gid]
			pin := int8(-1)
			if n := g.NumIn(); n > 0 && r.Intn(2) == 0 {
				pin = int8(r.Intn(n))
			}
			f := FaultSite{Gate: gid, Pin: pin, SA1: r.Intn(2) == 1}
			delta := ev.SiteDelta(f)
			det := ev.FaultDetect(f)
			if det&^delta != 0 {
				t.Fatalf("trial %d fault %v: detection %#x not a subset of delta %#x", trial, f, det, delta)
			}
			if masked := ev.FaultDetectDelta(f, delta&0xffff); masked&^0xffff != 0 || masked != det&0xffff {
				t.Fatalf("trial %d fault %v: masked delta gave %#x want %#x", trial, f, masked, det&0xffff)
			}
		}
	}
}

// TestObsFactorsDetection checks the exact factorization the shard
// walker's detection path relies on, on a width-1 evaluator: for every
// gate, ObsW equals the detection mask of an all-ones flip, and for
// arbitrary faults FaultDetect == SiteDelta & ObsW. Rows are memoized
// per block, so every gate is probed twice (cold and warm) and across
// two Run blocks to catch stale-memo bugs. Stem rows come from the
// compiled stem cones and, on a twin netlist whose cone budget is
// spent, from the over-budget fallback walk; the reference is
// FaultDetectDelta on an untouched evaluator.
func TestObsFactorsDetection(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	for trial := 0; trial < 10; trial++ {
		seed, nIn, nGates := r.Int63(), 4+r.Intn(10), 30+r.Intn(150)
		nl := randomCircuit(t, rand.New(rand.NewSource(seed)), nIn, nGates)
		twin := randomCircuit(t, rand.New(rand.NewSource(seed)), nIn, nGates)
		twin.stemOnce.Do(twin.initStemCones)
		twin.stems.budget.Store(0) // every stem over budget
		ev := mustEval(t, nl)
		fb := mustEval(t, twin)
		ref := mustEval(t, nl) // reference: never touched by ObsW memoization
		inputs := make([]uint64, len(nl.Inputs))
		for block := 0; block < 2; block++ {
			for i := range inputs {
				inputs[i] = r.Uint64()
			}
			mustRun(t, ev, inputs)
			mustRun(t, fb, inputs)
			mustRun(t, ref, inputs)
			for round := 0; round < 2; round++ {
				for gid := range nl.Gates {
					want := ref.FaultDetectDelta(FaultSite{Gate: int32(gid), Pin: -1}, ^uint64(0))
					if got := ev.ObsW(int32(gid))[0]; got != want {
						t.Fatalf("trial %d block %d round %d gate %d: ObsW %#x want %#x",
							trial, block, round, gid, got, want)
					}
					if got := fb.ObsW(int32(gid))[0]; got != want {
						t.Fatalf("trial %d block %d round %d gate %d: fallback ObsW %#x want %#x",
							trial, block, round, gid, got, want)
					}
				}
			}
			for probe := 0; probe < 60; probe++ {
				gid := int32(r.Intn(len(nl.Gates)))
				g := nl.Gates[gid]
				pin := int8(-1)
				if n := g.NumIn(); n > 0 && r.Intn(2) == 0 {
					pin = int8(r.Intn(n))
				}
				f := FaultSite{Gate: gid, Pin: pin, SA1: r.Intn(2) == 1}
				want := ref.FaultDetect(f)
				if got := ev.SiteDelta(f) & ev.ObsW(gid)[0]; got != want {
					t.Fatalf("trial %d block %d fault %v: delta&ObsW %#x want %#x", trial, block, f, got, want)
				}
			}
		}
	}
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

// TestEpochWrap forces the uint32 epoch wrap inside FaultDetect and
// asserts the stamp/sched arrays are cleared: stale stamps that happen to
// collide with the restarted epoch would otherwise feed garbage faulty
// values into the evaluation.
func TestEpochWrap(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	nl := randomCircuit(t, r, 8, 120)
	ev := mustEval(t, nl)
	inputs := make([]uint64, len(nl.Inputs))
	for i := range inputs {
		inputs[i] = r.Uint64()
	}
	mustRun(t, ev, inputs)

	faults := make([]FaultSite, 0, 32)
	for len(faults) < 32 {
		faults = append(faults, FaultSite{Gate: int32(r.Intn(len(nl.Gates))), Pin: -1, SA1: r.Intn(2) == 1})
	}
	want := make([]uint64, len(faults))
	for i, f := range faults {
		want[i] = ev.FaultDetect(f)
	}

	// Poison the scratch: pretend every net was marked in the epoch the
	// wrap restarts at (1), with garbage faulty values. A wrap that fails
	// to clear stamps would read these as current.
	for i := range ev.stamp {
		ev.stamp[i] = 1
		ev.sched[i] = 1
		ev.faulty[i] = r.Uint64()
	}
	ev.epoch = math.MaxUint32 // next FaultDetect increments to 0 -> wrap

	for i, f := range faults {
		if got := ev.FaultDetect(f); got != want[i] {
			t.Fatalf("fault %v after epoch wrap: got %#x want %#x", f, got, want[i])
		}
	}
	if ev.epoch == 0 || ev.epoch > uint32(len(faults)) {
		t.Fatalf("epoch after wrap = %d, want within [1,%d]", ev.epoch, len(faults))
	}
}
