package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"gpustl/internal/stl"
)

// CompactToBudget is an extension of the paper's method for its own
// motivating scenario: "application constraints might limit the available
// execution time" (§I). Instead of removing only all-unessential Small
// Blocks, it selects the subset of candidate SBs that fits a clock-cycle
// budget while maximizing the number of faults detected, using the same
// single logic simulation and single fault simulation.
//
// Selection is greedy by detections-per-cycle, which is the classic
// knapsack heuristic; mandatory code (protected regions, non-candidate
// instructions) is always kept and its cost charged against the budget.
// The returned Result is as in CompactPTP; Result.CompDuration reports the
// re-simulated duration of the selected program.
func (c *Compactor) CompactToBudget(p *stl.PTP, budgetCC uint64) (*Result, error) {
	start := time.Now()
	sbs, candidates, err := c.partition(p)
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	col, res, err := c.runTrace(ctx, p, false)
	if err != nil {
		return nil, err
	}
	origFC, err := c.evaluateFC(ctx, p, col.Patterns)
	if err != nil {
		return nil, err
	}

	rep, err := c.dropFaults(ctx, p, col.Patterns)
	if err != nil {
		return nil, err
	}

	// Per-instruction cost (total cc across warps) and detection counts.
	cost := make([]uint64, len(p.Prog))
	for _, s := range col.Spans {
		if int(s.PC) < len(cost) {
			cost[s.PC] += s.CCEnd - s.CCStart + 1
		}
	}
	det := make([]int64, len(p.Prog))
	idx := col.CCToPC()
	for i, n := range rep.DetectedPerPattern {
		if n == 0 {
			continue
		}
		if _, pc, ok := idx.Lookup(rep.CCs[i]); ok && int(pc) < len(det) {
			det[pc] += int64(n)
		}
	}

	// Mandatory cost: everything outside candidate SBs.
	inCandidate := make([]bool, len(p.Prog))
	for i, sb := range sbs {
		if !candidates[i] {
			continue
		}
		for pc := sb.Start; pc < sb.End; pc++ {
			inCandidate[pc] = true
		}
	}
	var mandatory uint64
	for pc := range p.Prog {
		if !inCandidate[pc] {
			mandatory += cost[pc]
		}
	}
	if mandatory > budgetCC {
		return nil, fmt.Errorf("core: budget %d cc below the mandatory cost %d cc of %s",
			budgetCC, mandatory, p.Name)
	}

	// Greedy knapsack over candidate SBs by detections per cycle.
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
			s.det += det[pc]
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
	remainingBudget := budgetCC - mandatory
	keep := make([]bool, len(sbs))
	for _, s := range scored {
		if s.det == 0 {
			continue // never spend budget on undetecting SBs
		}
		if s.cost <= remainingBudget {
			keep[s.idx] = true
			remainingBudget -= s.cost
		}
	}

	var removed []int
	removedSBs := 0
	for i, sb := range sbs {
		if !candidates[i] || keep[i] {
			continue
		}
		removedSBs++
		for pc := sb.Start; pc < sb.End; pc++ {
			removed = append(removed, pc)
		}
	}
	comp, err := Reassemble(p, sbs, removed)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	compCol, compRes, err := c.runTrace(ctx, comp, true)
	if err != nil {
		return nil, fmt.Errorf("core: budget-compacted %s does not run: %w", p.Name, err)
	}
	compFC, err := c.evaluateFC(ctx, comp, compCol.Patterns)
	if err != nil {
		return nil, err
	}

	return &Result{
		Original:        p,
		Compacted:       comp,
		OrigSize:        len(p.Prog),
		CompSize:        len(comp.Prog),
		OrigDuration:    res.Cycles,
		CompDuration:    compRes.Cycles,
		OrigFC:          origFC,
		CompFC:          compFC,
		TotalSBs:        len(sbs),
		RemovedSBs:      removedSBs,
		DetectedThisRun: rep.DetectedThisRun(),
		CompactionTime:  elapsed,
	}, nil
}
