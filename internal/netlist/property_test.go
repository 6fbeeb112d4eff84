package netlist

import (
	"math/rand"
	"testing"
)

// randomCircuit builds a random combinational DAG with the given number of
// inputs and gates; every gate kind is exercised.
func randomCircuit(t testing.TB, r *rand.Rand, nIn, nGates int) *Netlist {
	t.Helper()
	b := NewBuilder("random")
	nets := make([]int32, 0, nIn+nGates)
	for i := 0; i < nIn; i++ {
		nets = append(nets, b.InputBus("i", 1)...)
	}
	pick := func() int32 { return nets[r.Intn(len(nets))] }
	for g := 0; g < nGates; g++ {
		var n int32
		// Skip KInput and KConst0 as random picks. The draw is over 11
		// values although only 10 kinds remain: it was sized when a
		// flip-flop kind still existed, and keeping it keeps every seeded
		// circuit (benchCircuit included) gate for gate. The 11th value
		// falls to the Buf default, as the flip-flop kind did.
		switch Kind(2 + r.Intn(11)) {
		case KConst1:
			n = b.Const1()
		case KBuf:
			n = b.Buf(pick())
		case KNot:
			n = b.Not(pick())
		case KAnd:
			n = b.And(pick(), pick())
		case KOr:
			n = b.Or(pick(), pick())
		case KXor:
			n = b.Xor(pick(), pick())
		case KNand:
			n = b.Nand(pick(), pick())
		case KNor:
			n = b.Nor(pick(), pick())
		case KXnor:
			n = b.Xnor(pick(), pick())
		case KMux:
			n = b.Mux(pick(), pick(), pick())
		default:
			n = b.Buf(pick())
		}
		nets = append(nets, n)
	}
	// A handful of outputs drawn from the deepest nets.
	for i := 0; i < 4; i++ {
		b.Output("o", nets[len(nets)-1-i*3])
	}
	nl, err := b.Build()
	if err != nil {
		t.Fatalf("random circuit invalid: %v", err)
	}
	return nl
}

// TestRandomCircuitsPackedVsSingle cross-checks the 64-way packed
// evaluator against per-pattern evaluation on random circuits.
func TestRandomCircuitsPackedVsSingle(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		nl := randomCircuit(t, r, 4+r.Intn(12), 20+r.Intn(200))
		ev := mustEval(t, nl)
		nIn := len(nl.Inputs)

		inputs := make([]uint64, nIn)
		for i := range inputs {
			inputs[i] = r.Uint64()
		}
		mustRun(t, ev, inputs)
		packed := make([]uint64, len(nl.Outputs))
		for i := range packed {
			packed[i] = ev.Output(i)
		}

		ev2 := mustEval(t, nl)
		for p := 0; p < 64; p += 7 {
			pat := make([]bool, nIn)
			for i := range pat {
				pat[i] = inputs[i]>>uint(p)&1 == 1
			}
			out := mustEvalOnce(t, ev2, pat)
			for i := range out {
				if got := packed[i]>>uint(p)&1 == 1; got != out[i] {
					t.Fatalf("trial %d pattern %d output %d: packed %v single %v",
						trial, p, i, got, out[i])
				}
			}
		}
	}
}

// TestRandomCircuitsFaultDetectVsBrute cross-checks cone-limited faulty
// evaluation against the whole-circuit oracle on random circuits and
// random fault samples.
func TestRandomCircuitsFaultDetectVsBrute(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 12; trial++ {
		nl := randomCircuit(t, r, 4+r.Intn(10), 30+r.Intn(150))
		ev := mustEval(t, nl)
		inputs := make([]uint64, len(nl.Inputs))
		for i := range inputs {
			inputs[i] = r.Uint64()
		}
		mustRun(t, ev, inputs)

		for probe := 0; probe < 40; probe++ {
			gid := int32(r.Intn(len(nl.Gates)))
			g := nl.Gates[gid]
			pin := int8(-1)
			if n := g.NumIn(); n > 0 && r.Intn(2) == 0 {
				pin = int8(r.Intn(n))
			}
			f := FaultSite{Gate: gid, Pin: pin, SA1: r.Intn(2) == 1}
			got := ev.FaultDetect(f)
			want := bruteFaultDetect(nl, inputs, f)
			if got != want {
				t.Fatalf("trial %d fault %v: got %#x want %#x", trial, f, got, want)
			}
		}
	}
}

// TestRandomCircuitsLevelInvariant checks the levelization invariant on
// random circuits.
func TestRandomCircuitsLevelInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	for trial := 0; trial < 10; trial++ {
		nl := randomCircuit(t, r, 6, 120)
		seen := make([]bool, len(nl.Gates))
		prevLevel := int32(-1)
		for _, id := range nl.Order() {
			if seen[id] {
				t.Fatal("duplicate in order")
			}
			seen[id] = true
			if nl.Level(id) < prevLevel {
				t.Fatal("order not level-sorted")
			}
			prevLevel = nl.Level(id)
			for p := 0; p < nl.Gates[id].NumIn(); p++ {
				if !seen[nl.Gates[id].In[p]] {
					t.Fatal("gate ordered before its input")
				}
			}
		}
	}
}

// TestPackInputsWideRoundTrip is the transpose round-trip property of the
// wide input packer: for every block width, packing word-level pattern
// values and then reading each (pattern, bit) back out of the stride-W
// rows must reproduce the original words exactly — PackInputsWide is a
// pure bit transpose, never lossy, at any W.
func TestPackInputsWideRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	for _, w := range []int{1, 2, 4, 8, 16} {
		for trial := 0; trial < 20; trial++ {
			width := 1 + r.Intn(64)
			busStart := r.Intn(8)
			nIn := busStart + width + r.Intn(4)
			nPat := 1 + r.Intn(64*w)
			words := make([]uint64, nPat)
			var widthMask uint64 = ^uint64(0)
			if width < 64 {
				widthMask = 1<<uint(width) - 1
			}
			for p := range words {
				words[p] = r.Uint64() & widthMask
			}

			dst := make([]uint64, nIn*w)
			PackInputsWide(dst, w, busStart, width, words)

			// Unpack: bit p%64 of word p/64 of row busStart+i is bit i of
			// pattern p.
			for p, want := range words {
				var got uint64
				for i := 0; i < width; i++ {
					got |= dst[(busStart+i)*w+p/64] >> uint(p%64) & 1 << uint(i)
				}
				if got != want {
					t.Fatalf("w=%d trial=%d pattern %d: unpacked %#x, want %#x",
						w, trial, p, got, want)
				}
			}

			// Rows outside the bus stay untouched.
			for n := 0; n < busStart; n++ {
				for j := 0; j < w; j++ {
					if dst[n*w+j] != 0 {
						t.Fatalf("w=%d trial=%d: row %d below busStart dirtied", w, trial, n)
					}
				}
			}

			// Packing the same patterns as W=1 chunks must agree word for
			// word with the wide layout (the chunked form PackInputsU64
			// callers use).
			for wd := 0; wd*64 < nPat; wd++ {
				lo, hi := wd*64, min(nPat, (wd+1)*64)
				chunk := make([]uint64, nIn)
				PackInputsU64(chunk, busStart, width, words[lo:hi])
				for n := 0; n < nIn; n++ {
					if chunk[n] != dst[n*w+wd] {
						t.Fatalf("w=%d trial=%d word %d net %d: chunked %#x wide %#x",
							w, trial, wd, n, chunk[n], dst[n*w+wd])
					}
				}
			}
		}
	}
}
