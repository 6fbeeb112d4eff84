package run

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"gpustl/internal/circuits"
	"gpustl/internal/core"
	"gpustl/internal/gpu"
	"gpustl/internal/obs"
	"gpustl/internal/ptpgen"
	"gpustl/internal/stl"
)

// lookaheadLib is a DU library whose excluded PTP sits between
// simulated ones, so the helpers skip a PTP as they claim.
func lookaheadLib(t testing.TB) (*stl.STL, *core.ModuleSet) {
	t.Helper()
	lib := &stl.STL{PTPs: []*stl.PTP{
		ptpgen.IMM(20, 61),
		ptpgen.DIVG(3, 2, 63), // excluded: no admissible regions
		ptpgen.MEM(20, 62),
		ptpgen.CNTRL(8, 64),
	}}
	ms, err := core.NewModuleSet(lib, 1500, 1)
	if err != nil {
		t.Fatal(err)
	}
	return lib, ms
}

// lookaheadRun is one campaign's outputs: its report, the bytes a run
// must reproduce at any GOMAXPROCS, and each PTP's logic_sim attribute.
type lookaheadRun struct {
	rep                  *Report
	render, stl, journal string
	logicSim             map[string]string
}

// runAtProcs runs the lookahead library at the given GOMAXPROCS with the
// fault simulations' worker count left at GOMAXPROCS, so GOMAXPROCS 1
// runs every logic simulation on the runner.
func runAtProcs(t *testing.T, procs int, cfg gpu.Config, copt core.Options, opts Options) lookaheadRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	lib, ms := lookaheadLib(t)
	opts.CheckpointDir = t.TempDir()
	opts.Tracer = obs.NewTracer("")
	rep, err := Run(context.Background(), cfg, ms, lib, copt, opts)
	if err != nil {
		t.Fatalf("GOMAXPROCS %d: %v", procs, err)
	}
	var out bytes.Buffer
	if err := stl.WriteSTL(&out, rep.Compacted); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(opts.CheckpointDir, WALFile))
	if err != nil {
		t.Fatal(err)
	}
	r := lookaheadRun{rep: rep, render: render(t, rep), stl: out.String(), journal: string(wal),
		logicSim: map[string]string{}}
	events := opts.Tracer.Events()
	ptpOf := map[uint64]string{}
	for _, e := range events {
		if e.Kind == obs.KindPTP {
			ptpOf[e.ID] = e.Name
		}
	}
	for _, e := range events {
		if e.Kind == obs.KindStage && e.Name == string(core.StageTrace) {
			r.logicSim[ptpOf[e.Parent]] = e.Attrs["logic_sim"]
		}
	}
	return r
}

// TestLookaheadMatchesSerial runs the same library with every logic
// simulation on the runner (GOMAXPROCS 1) and with helpers running them
// ahead (GOMAXPROCS 4): the report, the compacted STL and the journal
// must match byte for byte, on a clean run, on a reverse-order run (a
// helper's collector records the last occurrences stage 3 orders the
// reversed stream by) and when stage 2 fails.
func TestLookaheadMatchesSerial(t *testing.T) {
	refused := errors.New("hook refuses the trace stage")
	tight := gpu.DefaultConfig()
	tight.MaxCycles = 5000
	for _, tc := range []struct {
		name  string
		cfg   gpu.Config
		copt  core.Options
		hook  func(ptp string, s core.Stage) error
		check func(t *testing.T, serial, ahead lookaheadRun)
	}{{
		name: "clean",
		cfg:  gpu.DefaultConfig(),
		check: func(t *testing.T, serial, ahead lookaheadRun) {
			for _, o := range ahead.rep.Outcomes {
				if o.Status == StatusRevertedError || o.Status == StatusQuarantined {
					t.Errorf("%s: %+v", o.Name, o)
				}
			}
			if got := ahead.logicSim["IMM"]; got != "inline" {
				t.Errorf("the runner's first PTP ran %q, want inline", got)
			}
			if got := ahead.logicSim["CNTRL"]; got == "inline" {
				t.Error("no helper ran CNTRL's logic simulation")
			}
			for name, got := range serial.logicSim {
				if got != "inline" {
					t.Errorf("GOMAXPROCS 1: %s ran %q", name, got)
				}
			}
		},
	}, {
		name: "reverse",
		cfg:  gpu.DefaultConfig(),
		copt: core.Options{ReversePatterns: true},
		check: func(t *testing.T, serial, ahead lookaheadRun) {
			for _, o := range ahead.rep.Outcomes {
				if o.Status == StatusRevertedError || o.Status == StatusQuarantined {
					t.Errorf("%s: %+v", o.Name, o)
				}
			}
			if got := ahead.logicSim["CNTRL"]; got == "inline" {
				t.Error("no helper ran CNTRL's logic simulation")
			}
		},
	}, {
		// MEM's helper finishes while IMM sleeps in its last stage, so
		// the hook refuses a trace that was already simulated.
		name: "hook-error-at-trace",
		cfg:  gpu.DefaultConfig(),
		hook: func(ptp string, s core.Stage) error {
			switch {
			case ptp == "IMM" && s == core.StageEvaluate:
				time.Sleep(200 * time.Millisecond)
			case ptp == "MEM" && s == core.StageTrace:
				return refused
			}
			return nil
		},
		check: func(t *testing.T, serial, ahead lookaheadRun) {
			o := ahead.rep.Outcomes[2]
			if o.Status != StatusRevertedError || o.Stage != core.StageTrace || !strings.Contains(o.Err, refused.Error()) {
				t.Errorf("MEM: %+v", o)
			}
			if got := ahead.logicSim["MEM"]; got != "ahead" {
				t.Errorf("MEM's logic simulation was %q when the hook refused it, want ahead", got)
			}
			if o := ahead.rep.Outcomes[3]; o.Status == StatusRevertedError {
				t.Errorf("CNTRL: %+v", o)
			}
		},
	}, {
		// Every logic simulation overruns the cycle limit: the
		// helpers' errors surface at the trace stage, as on the runner.
		name: "logic-sim-error",
		cfg:  tight,
		check: func(t *testing.T, serial, ahead lookaheadRun) {
			for _, i := range []int{0, 2, 3} {
				o := ahead.rep.Outcomes[i]
				if o.Status != StatusRevertedError || o.Stage != core.StageTrace || !strings.Contains(o.Err, "cycle limit") {
					t.Errorf("%s: %+v", o.Name, o)
				}
			}
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{FCTolerance: 5, StageHook: tc.hook}
			serial := runAtProcs(t, 1, tc.cfg, tc.copt, opts)
			ahead := runAtProcs(t, 4, tc.cfg, tc.copt, opts)
			if serial.render != ahead.render {
				t.Errorf("reports differ:\n--- GOMAXPROCS 1\n%s\n--- GOMAXPROCS 4\n%s", serial.render, ahead.render)
			}
			if serial.stl != ahead.stl {
				t.Error("compacted STLs differ")
			}
			if serial.journal != ahead.journal {
				t.Error("journals differ")
			}
			tc.check(t, serial, ahead)
		})
	}
}

// TestLookaheadCancelStopsHelpers cancels a run while helpers hold
// claimed PTPs: Run returns the cancel and leaves no goroutine behind.
func TestLookaheadCancelStopsHelpers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	lib, ms := lookaheadLib(t)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{StageHook: func(ptp string, s core.Stage) error {
		if ptp == "MEM" && s == core.StagePartition {
			cancel()
		}
		return nil
	}}
	rep, err := Run(ctx, gpu.DefaultConfig(), ms, lib, core.Options{}, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a cancel", err)
	}
	if len(rep.Outcomes) != 2 {
		t.Errorf("%d outcomes settled, want IMM and DIVG", len(rep.Outcomes))
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run returned, %d before", runtime.NumGoroutine(), base)
		}
	}
}

// TestHelperPanicSurfacesAtTrace re-raises a helper's panic on the
// runner, which classifies it as a panic at the trace stage.
func TestHelperPanicSurfacesAtTrace(t *testing.T) {
	lib, ms := testEnv(t)
	p := lib.PTPs[0]
	c := core.New(gpu.DefaultConfig(), ms.Modules[circuits.ModuleDU], ms.Faults[circuits.ModuleDU], core.Options{})
	// A compactor without a module panics in TracePTP.
	j := &logicJob{c: &core.Compactor{GPU: gpu.DefaultConfig()}, p: p, done: make(chan struct{})}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	defer j.release()
	j.run()
	if !j.panicked {
		t.Fatal("the helper's simulation did not panic")
	}
	_, stage, err := compactOne(context.Background(), c, p, Options{}, nil, j)
	var se *StageError
	if !errors.As(err, &se) || se.Kind != FailPanic || stage != core.StageTrace {
		t.Fatalf("stage %s, err %v; want a panic at trace", stage, err)
	}
	if c.Campaign.Detected() != 0 {
		t.Error("a failed trace stage touched the campaign")
	}
}
