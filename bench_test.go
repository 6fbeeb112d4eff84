// Benchmarks regenerating the paper's evaluation artifacts, one per table
// or in-text claim. Each benchmark runs a full experiment and reports the
// headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces Tables I-III, the STL summary, the ablations and the
// one-fault-sim cost claim in a single run. Set GPUSTL_BENCH_SCALE to
// small|medium|paper to change the experiment size (default: small).
package gpustl

import (
	"context"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *Env
	benchEnvErr  error
)

// benchBlockWords reads the GPUSTL_BLOCK_WORDS override for the
// fault-simulation benchmarks: CI pins the same benchmark at W=1 and W=8
// to watch both sides of the scalar/wide split. Empty or invalid = 0
// (auto width).
func benchBlockWords() int {
	n, err := strconv.Atoi(os.Getenv("GPUSTL_BLOCK_WORDS"))
	if err != nil || n < 0 || n > 16 {
		return 0
	}
	return n
}

func env(b *testing.B) *Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		scale := Small
		if s := os.Getenv("GPUSTL_BENCH_SCALE"); s != "" {
			scale, benchEnvErr = ScaleByName(s)
			if benchEnvErr != nil {
				return
			}
		}
		benchEnv, benchEnvErr = BuildEnv(ParamsFor(scale))
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

// uncompacted returns e without the compactions it caches once they
// ran, so every benchmark iteration compacts the STL again instead of
// re-reading the first iteration's reports.
func uncompacted(e *Env) *Env {
	return &Env{
		Params: e.Params, Cfg: e.Cfg,
		DU: e.DU, SP: e.SP, SFU: e.SFU,
		DUFaults: e.DUFaults, SPFaults: e.SPFaults, SFUFaults: e.SFUFaults,
		IMM: e.IMM, MEM: e.MEM, CNTRL: e.CNTRL, TPGEN: e.TPGEN, RAND: e.RAND, SFUIMM: e.SFUIMM,
		TPGENDropped: e.TPGENDropped, SFUIMMDropped: e.SFUIMMDropped,
	}
}

// BenchmarkTableI regenerates Table I: size, ARC %, duration and FC of the
// six PTPs plus the combined rows.
func BenchmarkTableI(b *testing.B) {
	e := env(b)
	var last *TableIResult
	for i := 0; i < b.N; i++ {
		t1, err := TableI(uncompacted(e))
		if err != nil {
			b.Fatal(err)
		}
		last = t1
	}
	for _, r := range last.Rows {
		b.ReportMetric(r.FC, "FC%/"+r.Name)
	}
}

// BenchmarkTableII regenerates Table II: Decoder Unit compaction with
// cross-PTP fault dropping (IMM, MEM, CNTRL, combined).
func BenchmarkTableII(b *testing.B) {
	e := env(b)
	var last *CompactionTables
	for i := 0; i < b.N; i++ {
		t2, err := TableII(uncompacted(e))
		if err != nil {
			b.Fatal(err)
		}
		last = t2
	}
	for _, r := range last.Rows {
		b.ReportMetric(-r.SizePct, "size-red%/"+r.Name)
		b.ReportMetric(r.DiffFC, "diffFC/"+r.Name)
	}
}

// BenchmarkTableIII regenerates Table III: functional-unit compaction
// (TPGEN, RAND, combined, SFU_IMM with reverse-order patterns).
func BenchmarkTableIII(b *testing.B) {
	e := env(b)
	var last *CompactionTables
	for i := 0; i < b.N; i++ {
		t3, err := TableIII(uncompacted(e))
		if err != nil {
			b.Fatal(err)
		}
		last = t3
	}
	for _, r := range last.Rows {
		b.ReportMetric(-r.SizePct, "size-red%/"+r.Name)
		b.ReportMetric(r.DiffFC, "diffFC/"+r.Name)
	}
}

// BenchmarkSTLSummary regenerates the Section IV whole-STL claims: the
// candidate PTPs' share of the STL and the overall size/duration reduction.
func BenchmarkSTLSummary(b *testing.B) {
	e := env(b)
	var last *STLSummaryResult
	for i := 0; i < b.N; i++ {
		u := uncompacted(e)
		t2, err := TableII(u)
		if err != nil {
			b.Fatal(err)
		}
		t3, err := TableIII(u)
		if err != nil {
			b.Fatal(err)
		}
		sum, err := STLSummary(u, t2, t3)
		if err != nil {
			b.Fatal(err)
		}
		last = sum
	}
	b.ReportMetric(last.CandidateSizeShare, "cand-size-share%")
	b.ReportMetric(last.CandidateDurShare, "cand-dur-share%")
	b.ReportMetric(last.STLSizeReduction, "stl-size-red%")
	b.ReportMetric(last.STLDurReduction, "stl-dur-red%")
}

// BenchmarkBaselineCompare quantifies the one-fault-simulation claim
// against the iterative prior-work baseline.
func BenchmarkBaselineCompare(b *testing.B) {
	e := env(b)
	var last *BaselineCompareResult
	for i := 0; i < b.N; i++ {
		bc, err := BaselineCompare(e)
		if err != nil {
			b.Fatal(err)
		}
		last = bc
	}
	b.ReportMetric(float64(last.BaselineFaultSims), "baseline-fault-sims")
	b.ReportMetric(last.BaselineMillis/last.ProposedMillis, "speedup-x")
}

// BenchmarkAblations runs the design-choice studies: fault dropping,
// reverse-order patterns, SB vs instruction granularity.
func BenchmarkAblations(b *testing.B) {
	e := env(b)
	var last *AblationResult
	for i := 0; i < b.N; i++ {
		ab, err := Ablations(e)
		if err != nil {
			b.Fatal(err)
		}
		last = ab
	}
	b.ReportMetric(last.MEMWithDropPct, "MEM-drop%")
	b.ReportMetric(last.MEMWithoutDropPct, "MEM-alone%")
	b.ReportMetric(last.SFUReversePct, "SFU-reverse%")
	b.ReportMetric(last.SFUForwardPct, "SFU-forward%")
	b.ReportMetric(last.SBGranPct, "SB-gran%")
	b.ReportMetric(last.InsGranPct, "instr-gran%")
}

// BenchmarkCompactOnePTP measures the compactor's raw throughput on a
// single mid-size PTP (the unit of work behind every table row).
func BenchmarkCompactOnePTP(b *testing.B) {
	mod, err := BuildModule(ModuleDU)
	if err != nil {
		b.Fatal(err)
	}
	faults := SampleFaults(mod, 4000, 1)
	ptp := GenerateIMM(200, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCompactor(DefaultGPUConfig(), mod, faults, CompactorOptions{})
		if _, err := c.CompactPTP(ptp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompactToBudget measures the budget-constrained extension (one
// knapsack selection on top of the single logic + fault simulation).
func BenchmarkCompactToBudget(b *testing.B) {
	mod, err := BuildModule(ModuleDU)
	if err != nil {
		b.Fatal(err)
	}
	faults := SampleFaults(mod, 4000, 1)
	ptp := GenerateIMM(200, 1)
	ref, err := NewCompactor(DefaultGPUConfig(), mod, faults, CompactorOptions{}).CompactPTP(ptp)
	if err != nil {
		b.Fatal(err)
	}
	budget := ref.OrigDuration / 10
	b.ResetTimer()
	var fc float64
	for i := 0; i < b.N; i++ {
		c := NewCompactor(DefaultGPUConfig(), mod, faults, CompactorOptions{})
		res, err := c.CompactToBudget(ptp, budget)
		if err != nil {
			b.Fatal(err)
		}
		fc = res.CompFC
	}
	b.ReportMetric(fc, "FC%@10%budget")
	b.ReportMetric(ref.OrigFC, "FC%unconstrained")
}

// BenchmarkLogicSimulation measures the GPU simulator's throughput on the
// IMM PTP (instructions simulated per op).
func BenchmarkLogicSimulation(b *testing.B) {
	ptp := GenerateIMM(300, 1)
	g, err := NewGPU(DefaultGPUConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	k := Kernel{
		Prog: ptp.Prog, Blocks: 1, ThreadsPerBlock: 32,
		GlobalBase: ptp.Data.Base, GlobalData: ptp.Data.Words,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Run(k); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultSimulation measures the optimized module-level fault
// simulator on the DU with the IMM pattern stream.
func BenchmarkFaultSimulation(b *testing.B) {
	mod, err := BuildModule(ModuleDU)
	if err != nil {
		b.Fatal(err)
	}
	ptp := GenerateIMM(300, 1)
	col := NewTraceCollector(ModuleDU)
	col.LiteRows = true
	g, err := NewGPU(DefaultGPUConfig(), col)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := g.Run(Kernel{
		Prog: ptp.Prog, Blocks: 1, ThreadsPerBlock: 32,
		GlobalBase: ptp.Data.Base, GlobalData: ptp.Data.Words,
	}); err != nil {
		b.Fatal(err)
	}
	faults := AllFaults(mod)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		camp := NewFaultCampaign(mod, faults)
		if _, err := camp.SimulateCtx(context.Background(), col.Patterns, SimOptions{BlockWords: benchBlockWords()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistSimulation runs the same campaign as
// BenchmarkFaultSimulation, but sharded through the distributed
// coordinator over three in-process workers — measuring the overhead
// of partitioning, dispatch, reply validation and report merging on
// top of the raw simulation.
func BenchmarkDistSimulation(b *testing.B) {
	mod, err := BuildModule(ModuleDU)
	if err != nil {
		b.Fatal(err)
	}
	ptp := GenerateIMM(300, 1)
	col := NewTraceCollector(ModuleDU)
	col.LiteRows = true
	g, err := NewGPU(DefaultGPUConfig(), col)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := g.Run(Kernel{
		Prog: ptp.Prog, Blocks: 1, ThreadsPerBlock: 32,
		GlobalBase: ptp.Data.Base, GlobalData: ptp.Data.Words,
	}); err != nil {
		b.Fatal(err)
	}
	faults := AllFaults(mod)
	co, err := NewDistCoordinator(DistOptions{},
		NewLocalWorker("w1"), NewLocalWorker("w2"), NewLocalWorker("w3"))
	if err != nil {
		b.Fatal(err)
	}
	defer co.Close()
	ctx := context.Background()
	b.ResetTimer()
	var shards, dispatches int
	for i := 0; i < b.N; i++ {
		camp := NewFaultCampaign(mod, faults)
		res, err := co.Run(ctx, camp, col.Patterns, SimOptions{})
		if err != nil {
			b.Fatal(err)
		}
		shards += res.Stats.Shards
		dispatches += res.Stats.Dispatches
	}
	b.ReportMetric(float64(shards)/float64(b.N), "shards/op")
	b.ReportMetric(float64(dispatches)/float64(b.N), "dispatches/op")
}

// overloadPlumbing is exactly the per-campaign work the resilient
// runner adds for overload protection when no limits are configured: a
// deadline check on the context, the campaign cost estimate, and an
// acquire/release round-trip on a nil admission pool. The benchmarks
// and the overhead test below share it so they measure the same code.
func overloadPlumbing(ctx context.Context, pool *AdmissionPool, progLen int) error {
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	cost := int64(progLen)
	release, err := pool.Acquire(ctx, cost)
	if err != nil {
		return err
	}
	release()
	return nil
}

// BenchmarkFaultSimulationOverload is BenchmarkFaultSimulation with the
// unlimited overload plumbing wrapped around every campaign — the
// "no limits configured" configuration every run uses by default.
// Paired with BenchmarkFaultSimulation in BENCH_overload.json it keeps
// the admission + deadline cost visible to benchdiff;
// TestOverloadPlumbingOverhead asserts the pair differ by <1%.
func BenchmarkFaultSimulationOverload(b *testing.B) {
	mod, err := BuildModule(ModuleDU)
	if err != nil {
		b.Fatal(err)
	}
	ptp := GenerateIMM(300, 1)
	col := NewTraceCollector(ModuleDU)
	col.LiteRows = true
	g, err := NewGPU(DefaultGPUConfig(), col)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := g.Run(Kernel{
		Prog: ptp.Prog, Blocks: 1, ThreadsPerBlock: 32,
		GlobalBase: ptp.Data.Base, GlobalData: ptp.Data.Words,
	}); err != nil {
		b.Fatal(err)
	}
	faults := AllFaults(mod)
	var pool *AdmissionPool // nil: no limits configured
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := overloadPlumbing(ctx, pool, len(ptp.Prog)); err != nil {
			b.Fatal(err)
		}
		camp := NewFaultCampaign(mod, faults)
		if _, err := camp.SimulateCtx(ctx, col.Patterns, SimOptions{BlockWords: benchBlockWords()}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOverloadPlumbingOverhead asserts the acceptance bound directly:
// the admission checks and deadline plumbing cost <1% of one fault
// simulation when no limits are configured. The plumbing is measured
// in isolation (nanoseconds) against a timed simulation (milliseconds),
// so the bound holds by orders of magnitude and the test is immune to
// run-to-run variance of the heavy simulation itself.
func TestOverloadPlumbingOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	mod, err := BuildModule(ModuleDU)
	if err != nil {
		t.Fatal(err)
	}
	ptp := GenerateIMM(300, 1)
	col := NewTraceCollector(ModuleDU)
	col.LiteRows = true
	g, err := NewGPU(DefaultGPUConfig(), col)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(Kernel{
		Prog: ptp.Prog, Blocks: 1, ThreadsPerBlock: 32,
		GlobalBase: ptp.Data.Base, GlobalData: ptp.Data.Words,
	}); err != nil {
		t.Fatal(err)
	}
	faults := AllFaults(mod)

	// Fastest of three simulations: the denominator.
	simTime := time.Duration(1<<62 - 1)
	for i := 0; i < 3; i++ {
		camp := NewFaultCampaign(mod, faults)
		start := time.Now()
		if _, err := camp.SimulateCtx(context.Background(), col.Patterns, SimOptions{BlockWords: benchBlockWords()}); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < simTime {
			simTime = d
		}
	}

	// Amortized plumbing cost: the numerator.
	var pool *AdmissionPool
	ctx := context.Background()
	const iters = 100_000
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := overloadPlumbing(ctx, pool, len(ptp.Prog)); err != nil {
			t.Fatal(err)
		}
	}
	perOp := time.Since(start) / iters

	if perOp*100 >= simTime {
		t.Fatalf("overload plumbing %v per campaign is not <1%% of a %v fault simulation", perOp, simTime)
	}
	t.Logf("plumbing %v/campaign vs simulation %v (%.4f%%)",
		perOp, simTime, 100*float64(perOp)/float64(simTime))
}
