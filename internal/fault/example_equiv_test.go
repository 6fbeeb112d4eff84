package fault_test

import (
	"context"
	"testing"

	"gpustl"
	"gpustl/internal/fault"
)

// TestEngineEquivalenceOnExamplePTPs is the end-to-end equivalence
// harness the shard walker is held to: for every example PTP of the
// paper's STL (IMM, MEM, CNTRL, TPGEN, RAND, SFU_IMM) and every block
// width W ∈ {auto, 1, 4, 8, 16}, SimulateCtx must produce a Report with
// byte-identical Detections — same fault, same first-detecting pattern
// index, same clock cycle — and identical per-group coverage as the
// test-only reference engine. SFU_IMM is additionally checked in
// reverse order (the collector's Reversed stream), the way the paper
// applies it. It lives in an
// external test package so it can build the experiment environment
// through the gpustl facade, which imports this package.
func TestEngineEquivalenceOnExamplePTPs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full experiment environment")
	}
	e, err := gpustl.BuildEnv(gpustl.ParamsFor(gpustl.Small))
	if err != nil {
		t.Fatal(err)
	}
	widths := []int{0, 1, 4, 8, 16}
	for _, ptp := range e.PTPs() {
		orders := []bool{false}
		if ptp.Name == "SFU_IMM" {
			orders = append(orders, true)
		}
		for _, reverse := range orders {
			name := ptp.Name
			if reverse {
				name += "_reverse"
			}
			t.Run(name, func(t *testing.T) {
				col, _, err := e.RunPTP(ptp)
				if err != nil {
					t.Fatal(err)
				}
				stream := col.Patterns
				if reverse {
					stream = col.Reversed()
				}
				mod := e.ModuleOf(ptp)
				faults := e.FaultsOf(ptp)

				run := func(reference bool, w int) (*fault.Report, []fault.GroupCoverage) {
					camp := gpustl.NewFaultCampaign(mod, faults)
					o := fault.SimOptions{BlockWords: w}
					var rep *fault.Report
					if reference {
						rep, err = fault.SimulateReference(camp, stream, o)
					} else {
						rep, err = camp.SimulateCtx(context.Background(), stream, o)
					}
					if err != nil {
						t.Fatal(err)
					}
					return rep, camp.CoverageByGroup()
				}
				ref, refCov := run(true, 0)
				for _, w := range widths {
					got, gotCov := run(false, w)

					if len(ref.Detections) != len(got.Detections) {
						t.Fatalf("w=%d: detection counts differ: reference %d, optimized %d",
							w, len(ref.Detections), len(got.Detections))
					}
					for i := range ref.Detections {
						if ref.Detections[i] != got.Detections[i] {
							t.Fatalf("w=%d: detection %d differs: reference %+v, optimized %+v",
								w, i, ref.Detections[i], got.Detections[i])
						}
					}
					if len(refCov) != len(gotCov) {
						t.Fatalf("w=%d: group counts differ: %d vs %d", w, len(refCov), len(gotCov))
					}
					for i := range refCov {
						if refCov[i] != gotCov[i] {
							t.Fatalf("w=%d: group %d coverage differs: reference %+v, optimized %+v",
								w, i, refCov[i], gotCov[i])
						}
					}
				}
			})
		}
	}
}
