package netlist

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchCircuit is the shared workload of the evaluator benchmarks: one
// random 3000-gate DAG, reused across widths so ns/op is comparable
// between BenchmarkEvalRun and every BenchmarkEvalRunWide width.
func benchCircuit(b *testing.B) *Netlist {
	b.Helper()
	return randomCircuit(b, rand.New(rand.NewSource(7)), 96, 3000)
}

func benchEvalRun(b *testing.B, w int) {
	nl := benchCircuit(b)
	ev, err := NewEvaluatorWide(nl, w)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	in := make([]uint64, len(nl.Inputs)*w)
	for i := range in {
		in[i] = r.Uint64()
	}
	b.SetBytes(int64(len(nl.Gates) * w * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.Run(in); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(64*w), "patterns/block")
}

// BenchmarkEvalRun sweeps one 64-pattern block through the compiled
// levelized plan code (W = 1).
func BenchmarkEvalRun(b *testing.B) { benchEvalRun(b, 1) }

// BenchmarkEvalRunWide sweeps wide blocks (W words = 64×W patterns per
// sweep) through the same plan; per-pattern throughput should rise with
// W until the value arrays fall out of cache.
func BenchmarkEvalRunWide(b *testing.B) {
	b.Run("w4", func(b *testing.B) { benchEvalRun(b, 4) })
	b.Run("w8", func(b *testing.B) { benchEvalRun(b, 8) })
	b.Run("w16", func(b *testing.B) { benchEvalRun(b, 16) })
}

// BenchmarkObsFill fills the observability row of every gate for one
// random block of benchCircuit: the stem-cone fills plus the
// fanout-free chains that inherit their rows. Every cone is compiled
// before the timer starts, so this measures the warm fill alone; each
// iteration drops the block's memo without re-running the sweep.
func BenchmarkObsFill(b *testing.B) {
	for _, w := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			nl := benchCircuit(b)
			ev, err := NewEvaluatorWide(nl, w)
			if err != nil {
				b.Fatal(err)
			}
			r := rand.New(rand.NewSource(13))
			in := make([]uint64, len(nl.Inputs)*w)
			for i := range in {
				in[i] = r.Uint64()
			}
			if err := ev.Run(in); err != nil {
				b.Fatal(err)
			}
			fill := func() {
				for g := range nl.Gates {
					ev.ObsW(int32(g))
				}
			}
			fill() // compiles every cone
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.obsEpoch++ // what Run does to the memo, without the sweep
				fill()
			}
		})
	}
}
