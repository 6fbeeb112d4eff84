package run

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"gpustl/internal/circuits"
	"gpustl/internal/core"
	"gpustl/internal/gpu"
	"gpustl/internal/ptpgen"
	"gpustl/internal/stl"
)

// testEnv builds a small DU library and its module set. The module set
// is rebuilt per call so each Run starts from fresh campaigns.
func testEnv(t testing.TB) (*stl.STL, *core.ModuleSet) {
	t.Helper()
	lib := &stl.STL{PTPs: []*stl.PTP{
		ptpgen.IMM(20, 61),
		ptpgen.MEM(20, 62),
		ptpgen.DIVG(3, 2, 63), // excluded: no admissible regions
	}}
	ms, err := core.NewModuleSet(lib, 1500, 1)
	if err != nil {
		t.Fatal(err)
	}
	return lib, ms
}

func render(t testing.TB, rep *Report) string {
	t.Helper()
	var buf bytes.Buffer
	rep.Render(&buf)
	return buf.String()
}

func TestRunCompactsLikePlainLoop(t *testing.T) {
	lib, ms := testEnv(t)
	rep, err := Run(context.Background(), gpu.DefaultConfig(), ms, lib,
		core.Options{Workers: 4}, Options{FCTolerance: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) != 3 || len(rep.Compacted.PTPs) != 3 {
		t.Fatalf("outcome counts: %d, %d", len(rep.Outcomes), len(rep.Compacted.PTPs))
	}
	if rep.Excluded != 1 || rep.Outcomes[2].Status != StatusExcluded {
		t.Fatalf("DIVG not excluded: %+v", rep.Outcomes[2])
	}
	if rep.Compacted.PTPs[2] != lib.PTPs[2] {
		t.Error("excluded PTP was replaced")
	}
	for _, o := range rep.Outcomes[:2] {
		if o.Status != StatusCompacted {
			t.Fatalf("%s: %+v", o.Name, o)
		}
	}
	if rep.SizeReduction() <= 0 {
		t.Errorf("no reduction: %.2f%%", rep.SizeReduction())
	}

	// Oracle: the same inputs through a plain CompactPTP loop over one
	// shared DU compactor agree PTP by PTP on the compacted sizes.
	lib2, ms2 := testEnv(t)
	du := core.New(gpu.DefaultConfig(), ms2.Modules[circuits.ModuleDU],
		ms2.Faults[circuits.ModuleDU], core.Options{Workers: 4})
	for i, p := range lib2.PTPs[:2] {
		res, err := du.CompactPTP(p)
		if err != nil {
			t.Fatal(err)
		}
		if o := rep.Outcomes[i]; o.OrigSize != res.OrigSize || o.CompSize != res.CompSize {
			t.Errorf("%s: run %d->%d != plain loop %d->%d",
				p.Name, o.OrigSize, o.CompSize, res.OrigSize, res.CompSize)
		}
	}
}

// TestRunExcludesAndDropsAcrossPTPs runs a two-module library end to
// end: the PTP without admissible regions passes through as the same
// object, and the DU PTPs share one campaign, so MEM — compacted after
// IMM has dropped the faults both detect — compacts harder than IMM.
func TestRunExcludesAndDropsAcrossPTPs(t *testing.T) {
	lib := &stl.STL{PTPs: []*stl.PTP{
		ptpgen.IMM(30, 61),
		ptpgen.MEM(30, 62),
		ptpgen.RAND(30, 63),
		ptpgen.DIVG(4, 2, 64), // excluded: no admissible regions
	}}
	ms, err := core.NewModuleSet(lib, 2500, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A tolerance no FC loss reaches: every candidate stays compacted.
	rep, err := Run(context.Background(), gpu.DefaultConfig(), ms, lib,
		core.Options{}, Options{FCTolerance: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) != 4 || len(rep.Compacted.PTPs) != 4 {
		t.Fatalf("PTP counts: %d outcomes, %d compacted", len(rep.Outcomes), len(rep.Compacted.PTPs))
	}
	if rep.Excluded != 1 || rep.Outcomes[3].Status != StatusExcluded {
		t.Errorf("DIVG not excluded: excluded=%d, %+v", rep.Excluded, rep.Outcomes[3])
	}
	if rep.Compacted.PTPs[3] != lib.PTPs[3] {
		t.Error("excluded PTP was replaced")
	}
	for _, o := range rep.Outcomes[:3] {
		if o.Status != StatusCompacted {
			t.Fatalf("%s: %+v", o.Name, o)
		}
	}
	if rep.SizeReduction() <= 0 {
		t.Errorf("no STL reduction: %.2f%%", rep.SizeReduction())
	}
	reduction := func(o Outcome) float64 { return 100 * (1 - float64(o.CompSize)/float64(o.OrigSize)) }
	if imm, mem := reduction(rep.Outcomes[0]), reduction(rep.Outcomes[1]); mem < imm {
		t.Errorf("MEM -%.2f%% < IMM -%.2f%%: dropping not shared", mem, imm)
	}
	wantComp := 0
	for _, p := range rep.Compacted.PTPs {
		wantComp += len(p.Prog)
	}
	if rep.CompSize != wantComp {
		t.Errorf("CompSize %d != %d", rep.CompSize, wantComp)
	}
}

func TestKillAndResumeRendersByteIdentical(t *testing.T) {
	cfg := gpu.DefaultConfig()
	copt := core.Options{Workers: 4}

	// Reference: one uninterrupted run.
	lib, ms := testEnv(t)
	ref, err := Run(context.Background(), cfg, ms, lib, copt, Options{FCTolerance: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := render(t, ref)

	// Interrupted run: the parent context is canceled as the second PTP
	// enters its logic trace, after the first PTP's checkpoint entry is
	// on disk.
	dir := t.TempDir()
	lib2, ms2 := testEnv(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{
		CheckpointDir: dir,
		FCTolerance:   5,
		StageHook: func(ptp string, stage core.Stage) error {
			if ptp == "MEM" && stage == core.StageTrace {
				cancel()
			}
			return nil
		},
	}
	partial, err := Run(ctx, cfg, ms2, lib2, copt, opts)
	if err == nil {
		t.Fatal("interrupted run reported success")
	}
	if len(partial.Outcomes) != 1 {
		t.Fatalf("partial run finished %d PTPs, want 1", len(partial.Outcomes))
	}
	ck, err := LoadCheckpoint(dir)
	if err != nil || ck == nil {
		t.Fatalf("no checkpoint after interruption: %v", err)
	}
	if len(ck.Entries) != 1 || ck.Entries[0].Name != "IMM" {
		t.Fatalf("checkpoint entries: %+v", ck.Entries)
	}

	// Resume with fresh campaigns: the first PTP replays from the
	// checkpoint, the rest compute, and the report is byte-identical.
	lib3, ms3 := testEnv(t)
	resumed, err := Run(context.Background(), cfg, ms3, lib3, copt,
		Options{CheckpointDir: dir, FCTolerance: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != 1 || !resumed.Outcomes[0].Resumed {
		t.Fatalf("resume did not replay the checkpoint: %+v", resumed.Outcomes[0])
	}
	if got := render(t, resumed); got != want {
		t.Errorf("resumed report differs:\n--- uninterrupted\n%s--- resumed\n%s", want, got)
	}
	// The library FC lines are part of that report, and the replayed
	// shipped set reproduces them.
	for _, line := range []string{"library FC DU: ", "excluded PTPs are not fault-simulated"} {
		if !strings.Contains(want, line) {
			t.Errorf("report has no %q line:\n%s", line, want)
		}
	}
	if len(ref.Library) != 1 || len(resumed.Library) != 1 || ref.Library[0] != resumed.Library[0] {
		t.Errorf("library FC %+v after resume, want %+v", resumed.Library, ref.Library)
	}

	// The compacted programs agree instruction-for-instruction too.
	for i := range ref.Compacted.PTPs {
		a, err := stl.Digest(ref.Compacted.PTPs[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := stl.Digest(resumed.Compacted.PTPs[i])
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("PTP %d differs after resume", i)
		}
	}
}

// TestLibraryFCWhenStage3Fails: a PTP that fails at the fault-sim stage
// commits no stage-3 drops, yet ships its original, whose standalone set
// core measured in the trace stage. With every PTP failing there, the
// original and shipped libraries are the same programs, so their FCs
// must agree and not read zero — also across a kill and resume.
func TestLibraryFCWhenStage3Fails(t *testing.T) {
	cfg := gpu.DefaultConfig()
	copt := core.Options{Workers: 4}
	injected := errors.New("injected fault-sim failure")
	failFaultSim := func(ptp string, stage core.Stage) error {
		if stage == core.StageFaultSim {
			return injected
		}
		return nil
	}
	check := func(rep *Report) {
		t.Helper()
		if rep.Reverted != 2 {
			t.Fatalf("reverted %d PTPs, want 2: %+v", rep.Reverted, rep.Outcomes)
		}
		if len(rep.Library) != 1 {
			t.Fatalf("library FC rows: %+v", rep.Library)
		}
		l := rep.Library[0]
		if l.Original == 0 || l.Original != l.Shipped {
			t.Fatalf("library FC %.2f%% original -> %.2f%% shipped, want equal and nonzero",
				l.OrigFC(), l.ShippedFC())
		}
	}

	lib, ms := testEnv(t)
	ref, err := Run(context.Background(), cfg, ms, lib, copt,
		Options{FCTolerance: 5, StageHook: failFaultSim})
	if err != nil {
		t.Fatal(err)
	}
	check(ref)
	want := render(t, ref)

	// Interrupt as the second PTP enters its trace, then resume.
	dir := t.TempDir()
	lib2, ms2 := testEnv(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = Run(ctx, cfg, ms2, lib2, copt, Options{
		CheckpointDir: dir,
		FCTolerance:   5,
		StageHook: func(ptp string, stage core.Stage) error {
			if ptp == "MEM" && stage == core.StageTrace {
				cancel()
			}
			return failFaultSim(ptp, stage)
		},
	})
	if err == nil {
		t.Fatal("interrupted run reported success")
	}
	lib3, ms3 := testEnv(t)
	resumed, err := Run(context.Background(), cfg, ms3, lib3, copt,
		Options{CheckpointDir: dir, FCTolerance: 5, StageHook: failFaultSim})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != 1 {
		t.Fatalf("resume replayed %d PTPs, want 1", resumed.Resumed)
	}
	check(resumed)
	if got := render(t, resumed); got != want {
		t.Errorf("resumed report differs:\n--- uninterrupted\n%s--- resumed\n%s", want, got)
	}
}

func TestInjectedPanicQuarantinesOnePTPOnly(t *testing.T) {
	lib, ms := testEnv(t)
	opts := Options{
		FCTolerance:   5,
		MaxPTPRetries: 3,
		StageHook: func(ptp string, stage core.Stage) error {
			if ptp == "IMM" && stage == core.StageReduce {
				panic("injected failure")
			}
			return nil
		},
	}
	rep, err := Run(context.Background(), gpu.DefaultConfig(), ms, lib,
		core.Options{Workers: 4}, opts)
	if err != nil {
		t.Fatalf("one bad PTP aborted the run: %v", err)
	}
	o := rep.Outcomes[0]
	if o.Status != StatusQuarantined || o.Stage != core.StageReduce {
		t.Fatalf("IMM outcome: %+v", o)
	}
	// StageReduce sits after the stage-3 campaign commit, so despite the
	// retry budget the PTP must quarantine on the first attempt —
	// re-running against the mutated campaign would over-compact.
	if o.Attempts != 1 {
		t.Fatalf("post-commit crash was retried: %d attempts", o.Attempts)
	}
	if !strings.Contains(o.Err, "injected failure") || !strings.Contains(o.Err, "quarantined") {
		t.Fatalf("panic message lost: %q", o.Err)
	}
	if rep.Compacted.PTPs[0] != lib.PTPs[0] {
		t.Error("quarantined PTP was not kept in its original form")
	}
	// The remaining candidate still compacts.
	if rep.Outcomes[1].Status != StatusCompacted {
		t.Fatalf("MEM outcome: %+v", rep.Outcomes[1])
	}
	if rep.Quarantined != 1 || rep.Reverted != 0 {
		t.Errorf("Quarantined = %d, Reverted = %d", rep.Quarantined, rep.Reverted)
	}
}

func TestPoisonPTPRetriedThenQuarantined(t *testing.T) {
	lib, ms := testEnv(t)
	attempts := 0
	opts := Options{
		FCTolerance:   5,
		MaxPTPRetries: 2,
		StageHook: func(ptp string, stage core.Stage) error {
			// StagePartition precedes the fault simulation, so the
			// campaign is untouched and every retry is safe.
			if ptp == "IMM" && stage == core.StagePartition {
				attempts++
				panic("poison PTP")
			}
			return nil
		},
	}
	rep, err := Run(context.Background(), gpu.DefaultConfig(), ms, lib,
		core.Options{Workers: 4}, opts)
	if err != nil {
		t.Fatalf("poison PTP aborted the run: %v", err)
	}
	o := rep.Outcomes[0]
	if o.Status != StatusQuarantined {
		t.Fatalf("IMM outcome: %+v", o)
	}
	if attempts != 3 || o.Attempts != 3 {
		t.Fatalf("attempts = %d (hook saw %d), want 1+MaxPTPRetries = 3", o.Attempts, attempts)
	}
	if rep.Compacted.PTPs[0] != lib.PTPs[0] {
		t.Error("quarantined PTP was not kept in its original form")
	}
	// Keeping the original is what makes quarantine FC-safe: the output
	// STL's programs are a superset of the compacted ones, so whole-STL
	// coverage cannot fall below the uncompacted baseline.
	if rep.CompSize > rep.OrigSize {
		t.Errorf("quarantine grew the STL: %d -> %d", rep.OrigSize, rep.CompSize)
	}
	if rep.Outcomes[1].Status != StatusCompacted {
		t.Fatalf("campaign did not continue past the poison PTP: %+v", rep.Outcomes[1])
	}
}

func TestTransientPanicRecoversOnRetry(t *testing.T) {
	lib, ms := testEnv(t)
	failures := 0
	opts := Options{
		FCTolerance:   5,
		MaxPTPRetries: 1,
		StageHook: func(ptp string, stage core.Stage) error {
			if ptp == "IMM" && stage == core.StagePartition && failures == 0 {
				failures++
				panic("transient")
			}
			return nil
		},
	}
	rep, err := Run(context.Background(), gpu.DefaultConfig(), ms, lib,
		core.Options{Workers: 4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	o := rep.Outcomes[0]
	if o.Status != StatusCompacted || o.Attempts != 2 {
		t.Fatalf("transient panic did not recover: %+v", o)
	}
}

func TestDeterministicErrorIsNotRetried(t *testing.T) {
	lib, ms := testEnv(t)
	calls := 0
	opts := Options{
		MaxPTPRetries: 5,
		StageHook: func(ptp string, stage core.Stage) error {
			if ptp == "IMM" && stage == core.StagePartition {
				calls++
				return errors.New("deterministic failure")
			}
			return nil
		},
	}
	rep, err := Run(context.Background(), gpu.DefaultConfig(), ms, lib,
		core.Options{Workers: 4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	o := rep.Outcomes[0]
	if o.Status != StatusRevertedError {
		t.Fatalf("IMM outcome: %+v", o)
	}
	if calls != 1 || o.Attempts != 1 {
		t.Fatalf("deterministic error was retried: %d calls, %d attempts", calls, o.Attempts)
	}
}

func TestStageErrorAttribution(t *testing.T) {
	lib, ms := testEnv(t)
	sentinel := errors.New("hook says no")
	opts := Options{
		StageHook: func(ptp string, stage core.Stage) error {
			if stage == core.StageFaultSim {
				return sentinel
			}
			return nil
		},
	}
	rep, err := Run(context.Background(), gpu.DefaultConfig(), ms, lib,
		core.Options{Workers: 4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range rep.Outcomes[:2] {
		if o.Status != StatusRevertedError || o.Stage != core.StageFaultSim {
			t.Fatalf("%s: %+v", o.Name, o)
		}
		if !strings.Contains(o.Err, "failed at stage faultsim") ||
			!strings.Contains(o.Err, sentinel.Error()) {
			t.Fatalf("%s: error %q", o.Name, o.Err)
		}
	}
}

func TestFCGuardReverts(t *testing.T) {
	lib, ms := testEnv(t)
	// A negative tolerance demands the compacted PTP IMPROVE coverage by
	// 1000 points — impossible, so every candidate reverts.
	rep, err := Run(context.Background(), gpu.DefaultConfig(), ms, lib,
		core.Options{Workers: 4}, Options{FCTolerance: -1000})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range rep.Outcomes[:2] {
		if o.Status != StatusRevertedFC {
			t.Fatalf("%s: %+v", o.Name, o)
		}
		if rep.Compacted.PTPs[i] != lib.PTPs[i] {
			t.Errorf("%s not reverted to original", o.Name)
		}
	}
	if rep.CompSize != rep.OrigSize {
		t.Errorf("reverted STL changed size: %d -> %d", rep.OrigSize, rep.CompSize)
	}
}

func TestWatchdogTimesOutHungStage(t *testing.T) {
	lib, ms := testEnv(t)
	// A 1ns budget per stage cannot finish any simulation: the watchdog
	// cancels each PTP, which must revert rather than abort the run.
	rep, err := Run(context.Background(), gpu.DefaultConfig(), ms, lib,
		core.Options{Workers: 4}, Options{StageTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range rep.Outcomes[:2] {
		if o.Status != StatusQuarantined {
			t.Fatalf("%s survived a 1ns stage budget: %+v", o.Name, o)
		}
	}
	if rep.Outcomes[2].Status != StatusExcluded {
		t.Fatalf("excluded PTP: %+v", rep.Outcomes[2])
	}
	if rep.Quarantined != 2 {
		t.Errorf("Quarantined = %d", rep.Quarantined)
	}
}

func TestCheckpointRejectsChangedConfig(t *testing.T) {
	dir := t.TempDir()
	cfg := gpu.DefaultConfig()
	copt := core.Options{Workers: 4}
	lib, ms := testEnv(t)
	if _, err := Run(context.Background(), cfg, ms, lib, copt,
		Options{CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}

	// A different library must refuse to resume from this checkpoint.
	other := &stl.STL{PTPs: []*stl.PTP{ptpgen.IMM(20, 99)}}
	ms2, err := core.NewModuleSet(other, 1500, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), cfg, ms2, other, copt,
		Options{CheckpointDir: dir})
	if err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("changed config accepted: %v", err)
	}
}

func TestStageErrorUnwraps(t *testing.T) {
	cause := errors.New("boom")
	se := &StageError{Stage: core.StageTrace, PTP: "X", Err: cause}
	if !errors.Is(se, cause) {
		t.Error("Unwrap broken")
	}
	if !strings.Contains(se.Error(), "X") || !strings.Contains(se.Error(), "trace") {
		t.Errorf("message: %q", se.Error())
	}
}
