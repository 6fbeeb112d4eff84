package trace

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"gpustl/internal/asm"
	"gpustl/internal/circuits"
	"gpustl/internal/fault"
	"gpustl/internal/gpu"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestOpStatsGolden locks down the full String() report — ordering,
// alignment, counts — on a small deterministic campaign. The report was
// previously exercised only by eye through cmd/tables; a byte-for-byte
// golden file catches accidental format or counting drift. Regenerate
// with `go test ./internal/trace/ -run Golden -update` after an
// intentional change.
func TestOpStatsGolden(t *testing.T) {
	// A fixed two-warp kernel touching ALU, SFU and memory paths, with a
	// tie in decode counts (SHLI vs SIN) to pin the opcode tiebreak.
	prog, err := asm.Assemble(`
		S2R  R0, SR_TID
		SHLI R1, R0, 2
		IADD R2, R0, R0
		IADD R3, R2, R0
		SIN  R4, R3
		GST  [R1+0], R4
		EXIT
	`)
	if err != nil {
		t.Fatal(err)
	}
	stats := &OpStats{}
	g, err := gpu.New(gpu.DefaultConfig(), stats)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(gpu.Kernel{Prog: prog, Blocks: 1, ThreadsPerBlock: 64}); err != nil {
		t.Fatal(err)
	}
	got := stats.String()

	golden := filepath.Join("testdata", "opstats.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got != string(want) {
		t.Errorf("OpStats report drifted from golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestOpStatsEngineGolden locks down the campaign-level report: OpStats
// and a pattern Collector observe the same run through a Tee, the
// collected stimulus drives a fault campaign, and the campaign's engine
// counters (dedup hit-rate, prescreen-skip ratio) are folded into the
// report via RecordEngine. The golden file pins the engine block's
// numbers, so a change that silently defeats an optimization (e.g. a
// stimulus tweak that kills dedup) fails this test even when wall-clock
// noise would hide it. Regenerate with -update after intentional
// changes.
func TestOpStatsEngineGolden(t *testing.T) {
	// A looping kernel: the re-executed iterations feed the SP lanes
	// duplicate stimulus, so the dedup counters are exercised (nonzero
	// hit-rate), not just present.
	prog, err := asm.Assemble(`
		S2R   R0, SR_TID
		MVI   R1, 3
		IADDI R2, R0, 5
	loop:
		IADD  R3, R2, R0
		IMULI R4, R3, 7
		IADDI R1, R1, -1
		ISETI R5, R1, 0, NE, P1
	@P1	BRA   loop
		GST   [R0+0], R4
		EXIT
	`)
	if err != nil {
		t.Fatal(err)
	}
	stats := &OpStats{}
	col := NewCollector(circuits.ModuleSP)
	col.LiteRows = true
	g, err := gpu.New(gpu.DefaultConfig(), NewTee(stats, col))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(gpu.Kernel{Prog: prog, Blocks: 1, ThreadsPerBlock: 64}); err != nil {
		t.Fatal(err)
	}
	m, err := circuits.Build(circuits.ModuleSP, 0)
	if err != nil {
		t.Fatal(err)
	}
	camp := fault.NewCampaign(m)
	camp.SampleFaults(400, 7)
	rep, err := camp.SimulateCtx(context.Background(), col.Patterns, fault.SimOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	stats.RecordEngine(rep.Stats)
	if stats.Engine.DedupHitRate() == 0 {
		t.Fatal("looping kernel produced no duplicate stimulus; engine block untested")
	}
	got := stats.String()

	golden := filepath.Join("testdata", "opstats_engine.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got != string(want) {
		t.Errorf("OpStats engine report drifted from golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
