// Package baseline implements the prior-work compaction approach the paper
// compares against (refs [13]–[16]): iteratively produce compacted-PTP
// candidates by tentatively removing one block at a time and re-running a
// full fault simulation to check that the fault coverage is preserved.
//
// Its cost is one logic simulation plus one fault simulation per candidate
// removal — versus the paper's single logic + single fault simulation —
// which is exactly the gap the evaluation's compaction-time discussion and
// our BenchmarkBaselineCompare quantify.
package baseline

import (
	"context"
	"fmt"
	"time"

	"gpustl/internal/circuits"
	"gpustl/internal/core"
	"gpustl/internal/fault"
	"gpustl/internal/gpu"
	"gpustl/internal/stl"
	"gpustl/internal/trace"
)

// Result summarizes an iterative compaction run.
type Result struct {
	Original  *stl.PTP
	Compacted *stl.PTP

	OrigSize, CompSize         int
	OrigDuration, CompDuration uint64
	OrigFC, CompFC             float64

	FaultSims int // fault simulations performed (the cost metric)
	LogicSims int
	Time      time.Duration
}

// SizeReduction returns the size compaction percentage.
func (r *Result) SizeReduction() float64 {
	return 100 * (1 - float64(r.CompSize)/float64(r.OrigSize))
}

// DurationReduction returns the duration compaction percentage.
func (r *Result) DurationReduction() float64 {
	return 100 * (1 - float64(r.CompDuration)/float64(r.OrigDuration))
}

// Compactor runs the iterative baseline over one module.
type Compactor struct {
	GPU    gpu.Config
	Module *circuits.Module
	Faults []fault.Fault

	// Tolerance is the FC loss (percentage points) a removal may cause and
	// still be committed; 0 reproduces the strict "maintain the FC" rule.
	Tolerance float64
}

// New creates a baseline compactor.
func New(cfg gpu.Config, m *circuits.Module, faults []fault.Fault) *Compactor {
	return &Compactor{GPU: cfg, Module: m, Faults: faults}
}

// simulateFC runs one logic simulation plus one fault simulation of the
// PTP and returns its fault coverage.
func (c *Compactor) simulateFC(p *stl.PTP) (float64, uint64, error) {
	col := trace.NewCollector(c.Module.Kind)
	col.LiteRows = true
	g, err := gpu.New(c.GPU, col)
	if err != nil {
		return 0, 0, err
	}
	res, err := g.Run(gpu.Kernel{
		Prog:            p.Prog,
		Blocks:          p.Kernel.Blocks,
		ThreadsPerBlock: p.Kernel.ThreadsPerBlock,
		GlobalBase:      p.Data.Base,
		GlobalData:      p.Data.Words,
	})
	if err != nil {
		return 0, 0, fmt.Errorf("baseline: %s: %w", p.Name, err)
	}
	camp := fault.NewCampaignWithFaults(c.Module, c.Faults)
	if _, err := camp.SimulateCtx(context.TODO(), col.Patterns, fault.SimOptions{}); err != nil {
		return 0, 0, fmt.Errorf("baseline: %s: %w", p.Name, err)
	}
	return camp.Coverage(), res.Cycles, nil
}

// CompactPTP iteratively removes candidate Small Blocks from the PTP,
// re-fault-simulating after every tentative removal and keeping only the
// removals that preserve the fault coverage (within Tolerance).
func (c *Compactor) CompactPTP(p *stl.PTP) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()

	origFC, origCC, err := c.simulateFC(p)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Original: p, OrigSize: len(p.Prog), OrigDuration: origCC, OrigFC: origFC,
		FaultSims: 1, LogicSims: 1,
	}

	arcs := p.ARCs()
	cur := p
	// Walk candidate SBs last-to-first so indices into the current program
	// stay valid after each committed removal.
	for i := len(cur.SBs) - 1; i >= 0; i-- {
		sb := cur.SBs[i]
		candidate := false
		for _, r := range arcs {
			if sb.Start >= r.Start && sb.End <= r.End {
				candidate = true
				break
			}
		}
		if !candidate {
			continue
		}
		var rm []int
		for pc := sb.Start; pc < sb.End; pc++ {
			rm = append(rm, pc)
		}
		cand, err := core.Reassemble(cur, cur.SBs, rm)
		if err != nil {
			continue
		}
		fc, _, err := c.simulateFC(cand)
		res.FaultSims++
		res.LogicSims++
		if err != nil {
			continue
		}
		if fc >= origFC-c.Tolerance {
			cur = cand
			arcs = cur.ARCs()
		}
	}

	finalFC, finalCC, err := c.simulateFC(cur)
	if err != nil {
		return nil, err
	}
	res.FaultSims++
	res.LogicSims++
	res.Compacted = cur
	res.CompSize = len(cur.Prog)
	res.CompDuration = finalCC
	res.CompFC = finalFC
	res.Time = time.Since(start)
	return res, nil
}
