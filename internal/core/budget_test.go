package core

import (
	"context"
	"testing"

	"gpustl/internal/circuits"
	"gpustl/internal/fault"
	"gpustl/internal/gpu"
	"gpustl/internal/ptpgen"
)

func TestCompactToBudgetRespectsBudget(t *testing.T) {
	m := module(t, circuits.ModuleDU)
	faults := sampledFaults(t, m, 3000, 1)
	p := ptpgen.IMM(80, 2)

	// Full duration of the original PTP.
	full, err := New(gpu.DefaultConfig(), m, faults, Options{}).CompactPTP(p)
	if err != nil {
		t.Fatal(err)
	}

	for _, frac := range []float64{0.5, 0.25, 0.10} {
		budget := uint64(float64(full.OrigDuration) * frac)
		c := New(gpu.DefaultConfig(), m, faults, Options{})
		res, err := c.CompactToBudget(p, budget)
		if err != nil {
			t.Fatalf("budget %.0f%%: %v", 100*frac, err)
		}
		// The selected program must fit the budget (small slack for the
		// scheduler's fixed overheads).
		if res.CompDuration > budget+budget/10 {
			t.Errorf("budget %d: duration %d", budget, res.CompDuration)
		}
		if res.CompFC <= 0 {
			t.Errorf("budget %.0f%%: no coverage", 100*frac)
		}
		t.Logf("budget %3.0f%%: %5d cc (%d instrs), FC %.2f (orig %.2f)",
			100*frac, res.CompDuration, res.CompSize, res.CompFC, res.OrigFC)
	}
}

func TestCompactToBudgetMonotoneFC(t *testing.T) {
	m := module(t, circuits.ModuleDU)
	faults := sampledFaults(t, m, 2500, 3)
	p := ptpgen.IMM(60, 4)
	full, err := New(gpu.DefaultConfig(), m, faults, Options{}).CompactPTP(p)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = -1
	for _, frac := range []float64{0.10, 0.40, 1.0} {
		c := New(gpu.DefaultConfig(), m, faults, Options{})
		res, err := c.CompactToBudget(p, uint64(float64(full.OrigDuration)*frac))
		if err != nil {
			t.Fatal(err)
		}
		if res.CompFC+0.5 < prev { // small tolerance: greedy is not optimal
			t.Errorf("FC decreased with a larger budget: %.2f after %.2f", res.CompFC, prev)
		}
		prev = res.CompFC
	}
}

func TestCompactToBudgetFullBudgetMatchesCompaction(t *testing.T) {
	// With the full original duration as budget, the selection keeps every
	// detecting SB — the result must compact at least as much as plain
	// CompactPTP (it also drops detecting-nothing SBs).
	m := module(t, circuits.ModuleDU)
	faults := sampledFaults(t, m, 2000, 5)
	p := ptpgen.IMM(50, 6)

	plain, err := New(gpu.DefaultConfig(), m, faults, Options{}).CompactPTP(p)
	if err != nil {
		t.Fatal(err)
	}
	budget, err := New(gpu.DefaultConfig(), m, faults, Options{}).CompactToBudget(p, plain.OrigDuration)
	if err != nil {
		t.Fatal(err)
	}
	if budget.CompSize > plain.CompSize {
		t.Errorf("full-budget selection kept more than plain compaction: %d vs %d",
			budget.CompSize, plain.CompSize)
	}
	if d := budget.CompFC - plain.CompFC; d < -0.5 || d > 0.5 {
		t.Errorf("full-budget FC %.2f deviates from plain %.2f", budget.CompFC, plain.CompFC)
	}
	// Both label the same FSR, so they count the same instructions.
	if budget.Essential != plain.Essential || budget.Unessential != plain.Unessential {
		t.Errorf("budget labeled %d essential, %d unessential; CompactPTP %d, %d",
			budget.Essential, budget.Unessential, plain.Essential, plain.Unessential)
	}
}

// countingSim runs the campaign's own simulator and counts the calls.
type countingSim struct{ calls int }

func (s *countingSim) SimulateCampaign(ctx context.Context, camp *fault.Campaign, stream []fault.TimedPattern, opt fault.SimOptions) (*fault.Report, error) {
	s.calls++
	return camp.SimulateCtx(ctx, stream, opt)
}

// TestCompactToBudgetTooSmall checks that a budget below the mandatory
// cost is refused before any fault simulation, leaving the shared
// campaign as it was.
func TestCompactToBudgetTooSmall(t *testing.T) {
	m := module(t, circuits.ModuleDU)
	faults := sampledFaults(t, m, 500, 7)
	p := ptpgen.CNTRL(10, 8) // large mandatory (loops, scaffolding)
	sim := &countingSim{}
	c := New(gpu.DefaultConfig(), m, faults, Options{Simulator: sim})
	if _, err := c.CompactToBudget(p, 10); err == nil {
		t.Fatal("impossible budget accepted")
	}
	if ids := c.Campaign.DetectedIDs(); len(ids) != 0 {
		t.Errorf("refused budget dropped %d faults from the shared campaign", len(ids))
	}
	if sim.calls != 0 {
		t.Errorf("refused budget ran %d fault simulations", sim.calls)
	}
}
