package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"gpustl/internal/circuits"
	"gpustl/internal/core"
	"gpustl/internal/fault"
	"gpustl/internal/run"
	"gpustl/internal/stl"
)

// GroupFC runs the given PTPs in order against one fresh campaign of the
// module's fault list and returns the cumulative coverage: a logic and
// a fault simulation per PTP, the direct way to measure a group's FC.
func (e *Env) GroupFC(ptps ...*stl.PTP) (float64, error) {
	if len(ptps) == 0 {
		return 0, nil
	}
	m := e.ModuleOf(ptps[0])
	camp := fault.NewCampaignWithFaults(m, e.FaultsOf(ptps[0]))
	for _, p := range ptps {
		if p.Target != ptps[0].Target {
			return 0, fmt.Errorf("experiments: mixed targets in group")
		}
		col, _, err := e.RunPTP(p)
		if err != nil {
			return 0, err
		}
		if _, err := camp.SimulateCtx(context.Background(), col.Patterns, fault.SimOptions{}); err != nil {
			return 0, err
		}
	}
	return camp.Coverage(), nil
}

// TestLibraryFCMatchesGroupFC holds run.Run's library FC, which unions
// the sets the pipeline already simulated, to GroupFC's re-simulation:
// the original library FC over the original programs and the shipped
// one over the STL the run wrote. With the stlcompact default
// tolerance of 5 points, small-scale CNTRL reverts, so the shipped
// union takes its original's set; with the revert off every PTP ships
// compacted. A PTP that fails after its original's FC was measured
// (here the second, at the reduce stage) ships its original and is
// credited with that original's whole standalone set, not only the
// faults it dropped in stage 3.
func TestLibraryFCMatchesGroupFC(t *testing.T) {
	env := smallEnv(t)
	refused := errors.New("reduce refused")
	for _, tc := range []struct {
		tol          float64
		reduceFailed bool
	}{{5, false}, {math.Inf(1), false}, {math.Inf(1), true}} {
		tol := tc.tol
		for _, l := range env.libraries()[:2] {
			name := fmt.Sprintf("%v/fctol=%v", l.mod.Kind, tol)
			opts := run.Options{FCTolerance: tol}
			if tc.reduceFailed {
				name += "/reduce-error"
				opts.StageHook = func(ptp string, s core.Stage) error {
					if ptp == l.ptps[1].Name && s == core.StageReduce {
						return refused
					}
					return nil
				}
			}
			t.Run(name, func(t *testing.T) {
				ms := &core.ModuleSet{
					Modules: map[circuits.ModuleKind]*circuits.Module{l.mod.Kind: l.mod},
					Faults:  map[circuits.ModuleKind][]fault.Fault{l.mod.Kind: l.faults},
				}
				rep, err := run.Run(context.Background(), env.Cfg, ms, &stl.STL{PTPs: l.ptps},
					core.Options{}, opts)
				if err != nil {
					t.Fatal(err)
				}
				reverted := 0
				for _, o := range rep.Outcomes {
					if o.Status == run.StatusRevertedFC {
						reverted++
					}
				}
				if l.mod.Kind == circuits.ModuleDU && tol == 5 && reverted == 0 {
					t.Fatal("no DU PTP reverted at fctol 5; the shipped union never takes an original's set")
				}
				if math.IsInf(tol, 1) && reverted != 0 {
					t.Fatalf("%d PTPs reverted with the revert off", reverted)
				}
				if o := rep.Outcomes[1]; tc.reduceFailed && (o.Status != run.StatusRevertedError || o.Stage != core.StageReduce) {
					t.Fatalf("%s: %+v, want reverted-error @reduce", o.Name, o)
				}

				var buf bytes.Buffer
				if err := stl.WriteSTL(&buf, rep.Compacted); err != nil {
					t.Fatal(err)
				}
				shipped, err := stl.ReadSTL(&buf)
				if err != nil {
					t.Fatal(err)
				}
				wantOrig, err := env.GroupFC(l.ptps...)
				if err != nil {
					t.Fatal(err)
				}
				wantShipped, err := env.GroupFC(shipped.PTPs...)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Library) != 1 {
					t.Fatalf("library FC rows: %+v", rep.Library)
				}
				lib := rep.Library[0]
				if lib.OrigFC() != wantOrig || lib.ShippedFC() != wantShipped {
					t.Errorf("library FC %.4f -> %.4f, GroupFC %.4f -> %.4f",
						lib.OrigFC(), lib.ShippedFC(), wantOrig, wantShipped)
				}
				var out bytes.Buffer
				rep.Render(&out)
				line := fmt.Sprintf("library FC %v: %.2f%% original -> %.2f%% shipped (%d faults)\n",
					l.mod.Kind, wantOrig, wantShipped, len(l.faults))
				if !strings.Contains(out.String(), line) {
					t.Errorf("report lacks %q:\n%s", line, out.String())
				}
			})
		}
	}
}
