package core

import (
	"context"
	"fmt"
	"sort"

	"gpustl/internal/stl"
)

// CompactToBudget is an extension of the paper's method for its own
// motivating scenario: "application constraints might limit the available
// execution time" (§I). It runs CompactPTP's pipeline with another stage
// 4: instead of removing only all-unessential Small Blocks, it selects
// the subset of candidate SBs that fits a clock-cycle budget while
// maximizing the number of faults detected. The cost is CompactPTP's:
// one logic simulation of the original, three fault simulations (the
// original's standalone FC, stage 3, the compacted PTP's FC) and one
// logic simulation of the compacted PTP, with no fault simulation per
// candidate selection.
//
// Selection is greedy by detections-per-cycle, which is the classic
// knapsack heuristic; mandatory code (protected regions, non-candidate
// instructions) is always kept and its cost charged against the budget.
// A budget below the mandatory cost is refused after the logic
// simulation and before any fault simulation, so the shared campaign is
// left as it was. The returned Result is as in CompactPTP;
// Result.CompDuration reports the re-simulated duration of the selected
// program.
func (c *Compactor) CompactToBudget(p *stl.PTP, budgetCC uint64) (*Result, error) {
	ctx := context.Background()
	sbs, candidates, err := c.partition(p)
	if err != nil {
		return nil, err
	}
	tr, err := c.TracePTP(ctx, p)
	if err != nil {
		return nil, err
	}
	reduce, err := budgetReducer(p, sbs, candidates, tr, budgetCC)
	if err != nil {
		return nil, err
	}
	return c.compact(ctx, p, nil, func(context.Context) (*Trace, error) { return tr, nil }, reduce)
}

// budgetReducer returns the stage 4 that fits p, traced as tr, into
// budgetCC, or an error when its mandatory code alone exceeds the budget.
func budgetReducer(p *stl.PTP, sbs []stl.SB, candidates []bool, tr *Trace, budgetCC uint64) (reducer, error) {
	// Per-instruction cost: total cc across warps. Mandatory cost:
	// everything outside candidate SBs.
	cost := make([]uint64, len(p.Prog))
	var mandatory uint64
	for _, s := range tr.col.Spans {
		if int(s.PC) < len(cost) {
			cost[s.PC] += s.CCEnd - s.CCStart + 1
			mandatory += s.CCEnd - s.CCStart + 1
		}
	}
	for i, sb := range sbs {
		if !candidates[i] {
			continue
		}
		for pc := sb.Start; pc < sb.End; pc++ {
			mandatory -= cost[pc]
		}
	}
	if mandatory > budgetCC {
		return nil, fmt.Errorf("core: budget %d cc below the mandatory cost %d cc of %s",
			budgetCC, mandatory, p.Name)
	}
	return func(sbs []stl.SB, candidates []bool, det []int32) []int {
		return knapsack(sbs, candidates, det, cost, budgetCC-mandatory)
	}, nil
}

// knapsack selects candidate SBs greedily by detections per cycle,
// keeping each SB that detects something and fits the budget left, and
// returns the instructions of the candidate SBs it did not keep.
func knapsack(sbs []stl.SB, candidates []bool, det []int32, cost []uint64, budget uint64) []int {
	type sbScore struct {
		idx  int
		det  int64
		cost uint64
	}
	var scored []sbScore
	for i, sb := range sbs {
		if !candidates[i] {
			continue
		}
		s := sbScore{idx: i}
		for pc := sb.Start; pc < sb.End; pc++ {
			s.det += int64(det[pc])
			s.cost += cost[pc]
		}
		scored = append(scored, s)
	}
	sort.SliceStable(scored, func(a, b int) bool {
		// detections-per-cycle, descending; zero-cost guards.
		da := float64(scored[a].det) / float64(scored[a].cost+1)
		db := float64(scored[b].det) / float64(scored[b].cost+1)
		if da != db {
			return da > db
		}
		return scored[a].idx < scored[b].idx
	})
	keep := make([]bool, len(sbs))
	for _, s := range scored {
		// never spend budget on undetecting SBs
		if s.det > 0 && s.cost <= budget {
			keep[s.idx] = true
			budget -= s.cost
		}
	}
	var removed []int
	for i, sb := range sbs {
		if !candidates[i] || keep[i] {
			continue
		}
		for pc := sb.Start; pc < sb.End; pc++ {
			removed = append(removed, pc)
		}
	}
	return removed
}
