package atpg

import (
	"context"
	"fmt"
	"math/rand"

	"gpustl/internal/circuits"
	"gpustl/internal/fault"
	"gpustl/internal/netlist"
)

// Options tunes a generation run.
type Options struct {
	Seed int64

	// RandomBlocks is the maximum number of 64-pattern random blocks.
	RandomBlocks int
	// UselessLimit stops the random phase after this many consecutive
	// blocks that detect nothing new.
	UselessLimit int
	// UsePodem enables the deterministic phase for the random-resistant
	// remainder.
	UsePodem bool
	// MaxBacktracks bounds each PODEM run.
	MaxBacktracks int
	// SampleFaults caps the targeted fault list (0 = all faults). Fault
	// sampling keeps medium-scale campaigns tractable.
	SampleFaults int
	// Collapse applies structural fault collapsing before generation.
	Collapse bool
	// KeepAllBlocks emits every pattern of the first N useful random
	// blocks instead of only the first-detecting ones. Commercial ATPG
	// pattern files carry exactly this kind of early redundancy (easy
	// faults are detected by many patterns); the paper's TPGEN/SFU_IMM
	// compaction rates presuppose it. 0 keeps strict selection.
	KeepAllBlocks int
}

// DefaultOptions returns a reasonable configuration.
func DefaultOptions(seed int64) Options {
	return Options{
		Seed:          seed,
		RandomBlocks:  256,
		UselessLimit:  8,
		UsePodem:      true,
		MaxBacktracks: 300,
	}
}

// Result is the outcome of a generation run.
type Result struct {
	Patterns []circuits.Pattern

	TotalFaults  int // faults targeted
	RandomDet    int // detected in the random phase
	PodemDet     int // detected by PODEM-generated patterns
	Untestable   int // PODEM exhausted the search: no pattern exists
	Aborted      int // PODEM hit MaxBacktracks before deciding
	RandPatterns int // patterns kept from the random phase
}

// Coverage returns the achieved fault coverage over the targeted list.
func (r *Result) Coverage() float64 {
	if r.TotalFaults == 0 {
		return 0
	}
	return 100 * float64(r.RandomDet+r.PodemDet) / float64(r.TotalFaults)
}

// Generate produces a compact detecting pattern set for the module's
// stuck-at faults: a random phase keeps only patterns that first-detect at
// least one fault; PODEM then targets the remainder, fault-simulating each
// new pattern to drop collateral detections.
//
// ATPG works on a single lane of the module (the same patterns reach every
// lane when the converted PTP executes across all threads). A fault
// simulation failure is returned as the error, and so is a PODEM pattern
// that the fault simulator finds does not detect its target: the two
// models of the module disagree. ctx is
// checked by every fault simulation and before every PODEM target; once
// it is done, Generate returns no result and an error wrapping ctx.Err().
func Generate(ctx context.Context, m *circuits.Module, opt Options) (*Result, error) {
	rng := rand.New(rand.NewSource(opt.Seed))
	oneLane := &circuits.Module{Kind: m.Kind, NL: m.NL, Lanes: 1}

	sites := fault.AllSites(m.NL)
	if opt.Collapse {
		sites = fault.CollapseEquivalent(m.NL, sites)
	}
	camp := fault.NewCampaignWithFaults(oneLane, fault.ExpandLanes(sites, 1))
	if opt.SampleFaults > 0 {
		camp.SampleFaults(opt.SampleFaults, opt.Seed)
	}
	res := &Result{TotalFaults: camp.Total()}

	numIn := len(m.NL.Inputs)
	randomPattern := func() circuits.Pattern {
		var p circuits.Pattern
		p.W[0] = rng.Uint64()
		p.W[1] = rng.Uint64()
		// Mask to the input count.
		if numIn < 64 {
			p.W[0] &= 1<<uint(numIn) - 1
			p.W[1] = 0
		} else if numIn < 128 {
			p.W[1] &= 1<<uint(numIn-64) - 1
		}
		return p
	}

	// Random phase.
	useless := 0
	usefulBlocks := 0
	for blk := 0; blk < opt.RandomBlocks && useless < opt.UselessLimit; blk++ {
		stream := make([]fault.TimedPattern, 64)
		for i := range stream {
			stream[i] = fault.TimedPattern{CC: uint64(blk*64 + i), Pat: randomPattern()}
		}
		rep, err := camp.SimulateCtx(ctx, stream, fault.SimOptions{})
		if err != nil {
			return nil, fmt.Errorf("atpg: fault-simulating %v: %w", m.Kind, err)
		}
		if rep.DetectedThisRun() == 0 {
			useless++
			continue
		}
		useless = 0
		res.RandomDet += rep.DetectedThisRun()
		if usefulBlocks < opt.KeepAllBlocks {
			for i := range stream {
				res.Patterns = append(res.Patterns, stream[i].Pat)
				res.RandPatterns++
			}
		} else {
			for i, n := range rep.DetectedPerPattern {
				if n > 0 {
					res.Patterns = append(res.Patterns, stream[i].Pat)
					res.RandPatterns++
				}
			}
		}
		usefulBlocks++
	}

	// Deterministic phase.
	if opt.UsePodem {
		for id, f := range camp.Faults() {
			if camp.IsDetected(fault.ID(id)) {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			pd := newPodem(m.NL, f.Site, opt.MaxBacktracks)
			pat, out := pd.run()
			switch out {
			case podemUntestable:
				res.Untestable++
				continue
			case podemAborted:
				res.Aborted++
				continue
			}
			rep, err := camp.SimulateCtx(ctx, []fault.TimedPattern{{Pat: pat}}, fault.SimOptions{})
			if err != nil {
				return nil, fmt.Errorf("atpg: fault-simulating %v: %w", m.Kind, err)
			}
			if !camp.IsDetected(fault.ID(id)) {
				return nil, fmt.Errorf("atpg: %v: the PODEM pattern for fault %v does not detect it in fault simulation", m.Kind, f.Site)
			}
			res.PodemDet += rep.DetectedThisRun()
			res.Patterns = append(res.Patterns, pat)
		}
	}
	return res, nil
}

// StaticCompact performs classic static test-set compaction: the patterns
// are replayed in reverse order against a fresh campaign over the same
// fault list, and only patterns that first-detect at least one fault are
// kept (reverse-order fault simulation drops the early redundancy that
// greedy generation accumulates). The kept patterns preserve the original
// set's coverage exactly. A fault simulation failure, or ctx ending
// first, is returned as the error.
func StaticCompact(ctx context.Context, m *circuits.Module, patterns []circuits.Pattern, opt Options) ([]circuits.Pattern, error) {
	oneLane := &circuits.Module{Kind: m.Kind, NL: m.NL, Lanes: 1}
	sites := fault.AllSites(m.NL)
	if opt.Collapse {
		sites = fault.CollapseEquivalent(m.NL, sites)
	}
	camp := fault.NewCampaignWithFaults(oneLane, fault.ExpandLanes(sites, 1))
	if opt.SampleFaults > 0 {
		camp.SampleFaults(opt.SampleFaults, opt.Seed)
	}
	// Stream entry j is pattern len-1-j: the set in reverse order.
	last := len(patterns) - 1
	stream := make([]fault.TimedPattern, len(patterns))
	for j := range stream {
		stream[j] = fault.TimedPattern{CC: uint64(last - j), Pat: patterns[last-j]}
	}
	rep, err := camp.SimulateCtx(ctx, stream, fault.SimOptions{})
	if err != nil {
		return nil, fmt.Errorf("atpg: fault-simulating %v: %w", m.Kind, err)
	}
	// Keep the detecting patterns in their original relative order.
	var out []circuits.Pattern
	for i := range patterns {
		if rep.DetectedPerPattern[last-i] > 0 {
			out = append(out, patterns[i])
		}
	}
	return out, nil
}

// GenerateForSites runs PODEM for an explicit list of fault sites and
// returns one pattern per fault it solves (no random phase, no dropping),
// counting the rest as proven untestable or aborted at maxBacktracks — a
// building block for tests and focused campaigns.
func GenerateForSites(nl *netlist.Netlist, sites []netlist.FaultSite, maxBacktracks int) (pats []circuits.Pattern, untestable, aborted int) {
	for _, s := range sites {
		pd := newPodem(nl, s, maxBacktracks)
		switch pat, out := pd.run(); out {
		case podemFound:
			pats = append(pats, pat)
		case podemUntestable:
			untestable++
		case podemAborted:
			aborted++
		}
	}
	return pats, untestable, aborted
}
