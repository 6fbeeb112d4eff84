package netlist_test

import (
	"math/rand"
	"testing"

	"gpustl/internal/circuits"
	"gpustl/internal/netlist"
)

// BenchmarkObsFillSP is BenchmarkObsFill on the SP module at W=16, the
// width and netlist of sp-lib's fault simulations. Its stem cones
// compile to about 4.6M code words, so the stem-cone kernel dominates
// the fill; benchCircuit's 1,100 stems compile to 499 ops in all, so
// its cases time the per-stem bookkeeping instead. Every cone is
// compiled before the timer starts, and each iteration re-runs the
// sweep with the timer stopped, which drops the block's memo.
func BenchmarkObsFillSP(b *testing.B) {
	const w = 16
	nl, err := circuits.BuildSP()
	if err != nil {
		b.Fatal(err)
	}
	ev, err := netlist.NewEvaluatorWide(nl, w)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(13))
	in := make([]uint64, len(nl.Inputs)*w)
	for i := range in {
		in[i] = r.Uint64()
	}
	run := func() {
		if err := ev.Run(in); err != nil {
			b.Fatal(err)
		}
	}
	fill := func() {
		for g := range nl.Gates {
			ev.ObsW(int32(g))
		}
	}
	run()
	fill() // compiles every cone
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		run()
		b.StartTimer()
		fill()
	}
}

// BenchmarkEvalRunSP is one W=16 good-circuit sweep of the SP module,
// the width and netlist of sp-lib's fault simulations: the AVX2 plan
// kernel on hosts that have it, the generic evalPlanCode in a purego
// build. benchCircuit, which BenchmarkEvalRunWide sweeps, is a random
// DAG whose levels and runs do not look like the module's.
func BenchmarkEvalRunSP(b *testing.B) {
	const w = 16
	nl, err := circuits.BuildSP()
	if err != nil {
		b.Fatal(err)
	}
	ev, err := netlist.NewEvaluatorWide(nl, w)
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
}
