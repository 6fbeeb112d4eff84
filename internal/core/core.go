// Package core implements the paper's contribution: the five-stage
// compaction method for Parallel Test Programs of GPU Self-Test Libraries.
//
//	stage 1 — PTP partitioning: basic blocks, CFG, Admissible Regions for
//	          Compaction (package stl), candidate Small Blocks;
//	stage 2 — logic tracing: one RTL-style simulation with the hardware
//	          monitor (package trace) collecting the Tracing Report and the
//	          target module's test-pattern stream;
//	stage 3 — ONE optimized gate-level fault simulation of the target
//	          module (package fault), with cross-PTP fault dropping, and
//	          the instruction-labeling algorithm of Fig. 2;
//	stage 4 — PTP reduction: the Fig. 3 algorithm removes Small Blocks
//	          whose instructions are all unessential (CompactToBudget
//	          swaps in a detections-per-cycle knapsack, the pipeline's
//	          only other difference);
//	stage 5 — reassembling: rebuild the program, relocate input data,
//	          repair branch displacements, and re-evaluate fault coverage.
//
// The headline property is preserved: every removal is decided from one
// fault simulation's labels, instead of one fault simulation per
// candidate removal as in prior CPU-oriented methods (package baseline).
// In all, a PTP costs one logic simulation of the original, three fault
// simulations (the original's standalone FC, stage 3, and the compacted
// PTP's standalone FC, the first and last for measurement only) and one
// logic simulation of the compacted PTP.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gpustl/internal/circuits"
	"gpustl/internal/fault"
	"gpustl/internal/gpu"
	"gpustl/internal/isa"
	"gpustl/internal/obs"
	"gpustl/internal/stl"
	"gpustl/internal/trace"
)

// FaultSimulator abstracts how the compactor runs its gate-level fault
// simulations. The zero behavior (nil Simulator) is the campaign's own
// in-process simulator; a distributed coordinator (internal/dist)
// satisfies this interface to run the same simulations across sharded
// workers. Implementations must preserve the in-process contract of
// fault.Campaign.SimulateCtx: an identical Report (first detections per
// fault over the stream, as fault.BuildReport assembles them) and an
// identical campaign mutation (every detected fault dropped) — or fail
// with an error, leaving the campaign untouched, rather than return
// partial data.
type FaultSimulator interface {
	SimulateCampaign(ctx context.Context, camp *fault.Campaign, stream []fault.TimedPattern, opt fault.SimOptions) (*fault.Report, error)
}

// Options tunes the compactor.
type Options struct {
	// ReversePatterns applies the extracted pattern stream in reverse
	// order during the stage-3 fault simulation (the paper uses this for
	// SFU_IMM, where it improves the compaction rate): the collector's
	// Reversed stream, each (lane, input vector) at its last occurrence.
	ReversePatterns bool
	// InstructionGranularity removes individual unessential instructions
	// instead of whole Small Blocks (an ablation of the SB design choice;
	// unsound for programs with cross-instruction operand dependences
	// inside SBs, but useful to quantify why the paper removes SBs).
	InstructionGranularity bool
	// Workers parallelizes the in-process fault simulations across this
	// many goroutines (fault.SimOptions.Workers): 0 selects
	// runtime.GOMAXPROCS(0), 1 is serial. Results are identical at any
	// setting. The evaluator block width is always auto-selected from
	// the pattern stream. run.Run also bounds its logic-simulation
	// lookahead by it: min(Workers, GOMAXPROCS) − 1 helpers run later
	// PTPs' stage 2 ahead of library order, none at 1.
	Workers int
	// Simulator, when non-nil, executes every fault simulation (the
	// stage-3 run and the standalone FC evaluations) instead of the
	// in-process engine — e.g. a dist.Coordinator spreading shards over
	// worker daemons. Results are identical by contract.
	Simulator FaultSimulator
	// Metrics, when non-nil, is threaded into every fault simulation so
	// the simulator's batched counters (patterns/sec, drops, coverage)
	// land in one registry. Never consulted on the compaction hot path.
	Metrics *obs.Registry
}

// simulate runs one fault simulation over camp through the configured
// engine: Opt.Simulator when set, the campaign's in-process simulator
// otherwise.
func (c *Compactor) simulate(ctx context.Context, camp *fault.Campaign, stream []fault.TimedPattern, opt fault.SimOptions) (*fault.Report, error) {
	if c.Opt.Simulator != nil {
		return c.Opt.Simulator.SimulateCampaign(ctx, camp, stream, opt)
	}
	return camp.SimulateCtx(ctx, stream, opt)
}

// Compactor compacts the PTPs of an STL that target one GPU module. It
// owns the persistent fault campaign, so PTPs compacted in sequence drop
// each other's faults exactly as the paper's fault list report prescribes.
type Compactor struct {
	GPU      gpu.Config
	Module   *circuits.Module
	Campaign *fault.Campaign
	Opt      Options
}

// New creates a compactor over the module's given fault list.
func New(cfg gpu.Config, m *circuits.Module, faults []fault.Fault, opt Options) *Compactor {
	return &Compactor{
		GPU:      cfg,
		Module:   m,
		Campaign: fault.NewCampaignWithFaults(m, faults),
		Opt:      opt,
	}
}

// Stage identifies one stage of the compaction pipeline. Resilient
// callers (package run) receive stage transitions through the onStage
// hook of CompactPTPCtx and use them for error attribution and per-stage
// watchdog timeouts.
type Stage string

// The pipeline stages, in execution order. StageEvaluate covers the
// final re-simulation of the compacted PTP (duration + standalone FC),
// which is measurement rather than one of the paper's five stages.
const (
	StagePartition  Stage = "partition"
	StageTrace      Stage = "trace"
	StageFaultSim   Stage = "faultsim"
	StageReduce     Stage = "reduce"
	StageReassemble Stage = "reassemble"
	StageEvaluate   Stage = "evaluate"
)

// CommitStage reports whether a failure at stage s may already have
// committed fault drops to the shared campaign: the stage-3 fault
// simulation commits its detections when it completes, so stages after
// it run against a mutated campaign. A resilient caller deciding
// whether a crashed PTP can be retried must not re-run it once drops
// committed — a second labeling would see the already-dropped campaign
// and over-compact. Reverting or quarantining the PTP stays sound
// either way, because the original program detects a superset of the
// dropped faults.
func CommitStage(s Stage) bool {
	switch s {
	case StageReduce, StageReassemble, StageEvaluate:
		return true
	}
	return false
}

// Result reports one PTP's compaction, mirroring the columns of Tables II
// and III.
type Result struct {
	Original  *stl.PTP
	Compacted *stl.PTP

	OrigSize, CompSize         int
	OrigDuration, CompDuration uint64
	OrigFC, CompFC             float64 // standalone FC (%), fresh fault list
	// OrigDetected and CompDetected are the sets behind OrigFC and
	// CompFC: the ids (into the campaign's master list, ascending) of
	// the faults each program detects standalone. Detection is per
	// fault, so a group of PTPs detects the union of their sets.
	OrigDetected, CompDetected []fault.ID

	TotalSBs, RemovedSBs   int
	Essential, Unessential int // labeled instructions inside candidate SBs
	DetectedThisRun        int // faults newly detected in the shared campaign
	CompactionTime         time.Duration
}

// SizeReduction returns the size compaction percentage (positive =
// smaller).
func (r *Result) SizeReduction() float64 {
	return 100 * (1 - float64(r.CompSize)/float64(r.OrigSize))
}

// DurationReduction returns the duration compaction percentage.
func (r *Result) DurationReduction() float64 {
	return 100 * (1 - float64(r.CompDuration)/float64(r.OrigDuration))
}

// FCDiff returns CompFC - OrigFC in percentage points (the "Diff FC"
// column: negative = coverage lost).
func (r *Result) FCDiff() float64 { return r.CompFC - r.OrigFC }

// runTrace executes the PTP with the tracing monitor attached and
// returns the collector and the simulated clock cycles. orig is nil for
// the run of an original PTP, which keeps the retire spans the labeling
// stage needs. The run of a compacted PTP passes the original's
// collector instead: it drops the spans and sizes its pattern stream
// from the original's, which a compacted program rarely exceeds.
func (c *Compactor) runTrace(ctx context.Context, p *stl.PTP, orig *trace.Collector) (*trace.Collector, uint64, error) {
	col := trace.NewCollector(c.Module.Kind)
	if orig != nil {
		col.LiteRows = true
		col.Patterns = make([]fault.TimedPattern, 0, len(orig.Patterns))
	}
	g, err := gpu.New(c.GPU, col)
	if err != nil {
		return nil, 0, err
	}
	res, err := g.RunCtx(ctx, gpu.Kernel{
		Prog:            p.Prog,
		Blocks:          p.Kernel.Blocks,
		ThreadsPerBlock: p.Kernel.ThreadsPerBlock,
		GlobalBase:      p.Data.Base,
		GlobalData:      p.Data.Words,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("core: logic simulation of %s: %w", p.Name, err)
	}
	return col, res.Cycles, nil
}

// Trace is stage 2's product for one original PTP: the tracing
// monitor's collector and the simulated clock cycles.
type Trace struct {
	col    *trace.Collector
	cycles uint64
}

// TracePTP runs stage 2 on its own: the one logic simulation of p, with
// the tracing monitor attached. It reads nothing the shared campaign
// holds, so a caller may run it for a PTP while earlier PTPs are still
// compacting.
func (c *Compactor) TracePTP(ctx context.Context, p *stl.PTP) (*Trace, error) {
	col, cycles, err := c.runTrace(ctx, p, nil)
	if err != nil {
		return nil, err
	}
	return &Trace{col: col, cycles: cycles}, nil
}

// LogicSim supplies stage 2 of the PTP being compacted. CompactPTPCtx
// calls it once, right after entering StageTrace, with the compaction's
// context; an error fails the PTP at that stage.
type LogicSim func(ctx context.Context) (*Trace, error)

// evaluateFC runs a standalone fault simulation of the PTP's traced
// pattern stream against a fresh detection state over the campaign's
// fault list. It returns the coverage percentage, the ids of the
// detected faults, ascending, and the run's report. orig nil simulates
// every fault. A compacted PTP passes the report of its original's
// standalone run: the faults surviving finds are detected with no
// simulation, and only the rest are simulated.
func (c *Compactor) evaluateFC(ctx context.Context, p *stl.PTP, col *trace.Collector, orig *fault.Report) (float64, []fault.ID, *fault.Report, error) {
	fc := c.Campaign.Fresh()
	if orig != nil {
		if err := fc.RestoreDetected(surviving(orig, col)); err != nil {
			return 0, nil, nil, fmt.Errorf("core: FC evaluation of %s: %w", p.Name, err)
		}
	}
	rep, err := c.simulate(ctx, fc, col.Patterns, fault.SimOptions{Workers: c.Opt.Workers, Metrics: c.Opt.Metrics})
	if err != nil {
		return 0, nil, nil, fmt.Errorf("core: FC evaluation of %s: %w", p.Name, err)
	}
	return fc.Coverage(), fc.DetectedIDs(), rep, nil
}

// surviving returns the faults of the original's standalone report whose
// first detecting (lane, input vector) the compacted run applied too,
// looked up in the compacted trace's pattern table. The module is
// combinational, so that vector detects each of them in the compacted
// run as well, wherever it sits.
func surviving(orig *fault.Report, comp *trace.Collector) []fault.ID {
	var out []fault.ID
	for _, d := range orig.Detections {
		if tp := &orig.Stream[d.Pattern]; comp.Applied(tp.Lane, tp.Pat) {
			out = append(out, d.Fault)
		}
	}
	return out
}

// stage3Stream returns the traced stream in the order stage 3 applies
// it: the collector's reversed stream under ReversePatterns.
func (c *Compactor) stage3Stream(col *trace.Collector) []fault.TimedPattern {
	if c.Opt.ReversePatterns {
		return col.Reversed()
	}
	return col.Patterns
}

// dropFaults runs the stage-3 fault simulation of the PTP's pattern
// stream, given in application order, commits its first detections to
// the shared campaign (the cross-PTP fault dropping), and returns the
// Fault Sim Report. origDet is the original's standalone detected set.
// Which faults a combinational module detects does not depend on
// pattern order, so a fault outside it cannot be detected here: the run
// simulates only the shared campaign's undetected faults in origDet, on
// a scratch campaign.
// First detections are per fault, so its report is the report of a run
// over every undetected fault. The shared campaign changes only when the
// run succeeds.
func (c *Compactor) dropFaults(ctx context.Context, p *stl.PTP, patterns []fault.TimedPattern, origDet []fault.ID) (*fault.Report, error) {
	live := make([]fault.ID, 0, len(origDet))
	for _, id := range origDet {
		if !c.Campaign.IsDetected(id) {
			live = append(live, id)
		}
	}
	scratch := c.Campaign.Fresh()
	if err := scratch.Only(live); err != nil {
		return nil, fmt.Errorf("core: fault simulation of %s: %w", p.Name, err)
	}
	rep, err := c.simulate(ctx, scratch, patterns, fault.SimOptions{
		Workers: c.Opt.Workers,
		Metrics: c.Opt.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("core: fault simulation of %s: %w", p.Name, err)
	}
	dropped := make([]fault.ID, len(rep.Detections))
	for i, d := range rep.Detections {
		dropped[i] = d.Fault
	}
	if err := c.Campaign.RestoreDetected(dropped); err != nil {
		return nil, fmt.Errorf("core: fault simulation of %s: %w", p.Name, err)
	}
	c.Campaign.RecordCoverage(c.Opt.Metrics)
	return rep, nil
}

// partition is stage 1: it checks that the PTP targets the compactor's
// module and is well formed, and returns its Small Blocks (the PTP's own,
// or segmented from its ARCs) with candidates[i] set for each SB that
// lies fully inside an Admissible Region for Compaction.
func (c *Compactor) partition(p *stl.PTP) (sbs []stl.SB, candidates []bool, err error) {
	if p.Target != c.Module.Kind {
		return nil, nil, fmt.Errorf("core: PTP %s targets %v, compactor owns %v",
			p.Name, p.Target, c.Module.Kind)
	}
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	arcs := p.ARCs()
	sbs = p.SBs
	if len(sbs) == 0 {
		sbs = stl.SegmentSBs(p.Prog, arcs)
	}
	candidates = make([]bool, len(sbs))
	for i, sb := range sbs {
		for _, r := range arcs {
			if sb.Start >= r.Start && sb.End <= r.End {
				candidates[i] = true
				break
			}
		}
	}
	return sbs, candidates, nil
}

// CompactPTP runs the five stages on one PTP and returns the result. The
// shared campaign is updated with the faults this PTP detects.
func (c *Compactor) CompactPTP(p *stl.PTP) (*Result, error) {
	return c.CompactPTPCtx(context.Background(), p, nil, nil)
}

// CompactPTPCtx is CompactPTP with cooperative cancellation and stage
// reporting. The context is checked at every stage boundary and threaded
// into the logic and fault simulations, so a cancel mid-stage aborts
// within microseconds. onStage (optional) is invoked as each stage is
// entered; returning an error aborts the compaction with that error —
// this is how package run attributes failures and arms per-stage
// watchdogs. An error before or during stage 3 leaves the shared
// campaign untouched (fault dropping commits only when the stage-3
// simulation completes); an error after stage 3 keeps the drops, which
// is sound because a caller that reverts to the original PTP keeps a
// program that detects a superset of those faults.
//
// logic (optional) supplies stage 2, such as a logic simulation a caller
// ran ahead of time; nil runs TracePTP in place. A failure after the
// original's standalone FC was measured returns a partial Result with
// the error: it carries only Original, OrigSize, OrigDuration, OrigFC
// and OrigDetected, which is what the caller ships when it reverts.
func (c *Compactor) CompactPTPCtx(ctx context.Context, p *stl.PTP, onStage func(Stage) error, logic LogicSim) (*Result, error) {
	return c.compact(ctx, p, onStage, logic, c.reduce)
}

// reducer is stage 4: given the PTP's SBs, the candidate mask and the
// number of fault detections the labeled FSR attributes to each
// instruction, it returns the instructions to remove.
type reducer func(sbs []stl.SB, candidates []bool, det []int32) []int

// compact is the per-PTP pipeline behind CompactPTPCtx and
// CompactToBudget, which differ only in the stage-4 reducer.
func (c *Compactor) compact(ctx context.Context, p *stl.PTP, onStage func(Stage) error, logic LogicSim, reduce reducer) (*Result, error) {
	if err := c.Campaign.Err(); err != nil {
		return nil, err
	}
	enter := func(s Stage) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: compaction of %s canceled at stage %s: %w",
				p.Name, s, err)
		}
		if onStage != nil {
			if err := onStage(s); err != nil {
				return fmt.Errorf("core: stage hook at %s for %s: %w", s, p.Name, err)
			}
		}
		return nil
	}
	start := time.Now()

	// Stage 1 — partitioning: candidate SBs are those fully inside ARCs.
	if err := enter(StagePartition); err != nil {
		return nil, err
	}
	sbs, candidates, err := c.partition(p)
	if err != nil {
		return nil, err
	}

	// Stage 2 — logic tracing (the ONE logic simulation).
	if err := enter(StageTrace); err != nil {
		return nil, err
	}
	if logic == nil {
		logic = func(ctx context.Context) (*Trace, error) { return c.TracePTP(ctx, p) }
	}
	tr, err := logic(ctx)
	if err != nil {
		return nil, err
	}
	col := tr.col

	// Standalone FC of the original PTP (fresh fault list) for the Diff FC
	// column; this is the paper's reference fault-injection campaign, not
	// part of the compaction loop itself.
	origFC, origDet, origRep, err := c.evaluateFC(ctx, p, col, nil)
	if err != nil {
		return nil, err
	}
	failed := func(err error) (*Result, error) {
		return &Result{Original: p, OrigSize: len(p.Prog), OrigDuration: tr.cycles,
			OrigFC: origFC, OrigDetected: origDet}, err
	}

	// Stage 3 — the ONE optimized fault simulation, with fault dropping on
	// the shared campaign, followed by instruction labeling (Fig. 2).
	if err := enter(StageFaultSim); err != nil {
		return failed(err)
	}
	rep, err := c.dropFaults(ctx, p, c.stage3Stream(col), origDet)
	if err != nil {
		return failed(err)
	}
	det := detections(len(p.Prog), rep, col.CCToPC())

	// Stage 4 — reduction.
	if err := enter(StageReduce); err != nil {
		return failed(err)
	}
	removed := reduce(sbs, candidates, det)
	var nEss, nUness int
	for i, sb := range sbs {
		if !candidates[i] {
			continue
		}
		for pc := sb.Start; pc < sb.End; pc++ {
			if det[pc] > 0 {
				nEss++
			} else {
				nUness++
			}
		}
	}

	// Stage 5 — reassembling.
	if err := enter(StageReassemble); err != nil {
		return failed(err)
	}
	comp, err := Reassemble(p, sbs, removed)
	if err != nil {
		return failed(err)
	}
	elapsed := time.Since(start)

	// Final evaluation: re-simulate the compacted PTP to measure its
	// duration and standalone FC.
	if err := enter(StageEvaluate); err != nil {
		return failed(err)
	}
	compCol, compCycles, err := c.runTrace(ctx, comp, col)
	if err != nil {
		return failed(fmt.Errorf("core: compacted %s does not run: %w", p.Name, err))
	}
	compFC, compDet, _, err := c.evaluateFC(ctx, comp, compCol, origRep)
	if err != nil {
		return failed(err)
	}

	return &Result{
		Original:        p,
		Compacted:       comp,
		OrigSize:        len(p.Prog),
		CompSize:        len(comp.Prog),
		OrigDuration:    tr.cycles,
		CompDuration:    compCycles,
		OrigFC:          origFC,
		CompFC:          compFC,
		OrigDetected:    origDet,
		CompDetected:    compDet,
		TotalSBs:        len(sbs),
		RemovedSBs:      len(sbs) - len(comp.SBs),
		Essential:       nEss,
		Unessential:     nUness,
		DetectedThisRun: rep.DetectedThisRun(),
		CompactionTime:  elapsed,
	}, nil
}

// reduce is the paper's stage 4 (Fig. 3): it removes every instruction
// of each candidate SB whose instructions are all unessential (detect
// nothing), or under InstructionGranularity every unessential
// instruction of a candidate SB.
func (c *Compactor) reduce(sbs []stl.SB, candidates []bool, det []int32) (removed []int) {
	for i, sb := range sbs {
		if !candidates[i] {
			continue
		}
		allUness := true
		for pc := sb.Start; pc < sb.End; pc++ {
			if det[pc] > 0 {
				allUness = false
			} else if c.Opt.InstructionGranularity {
				removed = append(removed, pc)
			}
		}
		if allUness && !c.Opt.InstructionGranularity {
			for pc := sb.Start; pc < sb.End; pc++ {
				removed = append(removed, pc)
			}
		}
	}
	return removed
}

// detections implements the instruction-labeling algorithm of Fig. 2: it
// joins the Fault Sim Report to instructions through the clock-cycle
// index of the Tracing Report and returns, per instruction, the number
// of fault detections its execution (any warp) carried. An instruction
// is essential when its count is nonzero.
func detections(progLen int, rep *fault.Report, idx *trace.CCIndex) []int32 {
	det := make([]int32, progLen)
	for i, n := range rep.DetectedPerPattern {
		if n == 0 {
			continue
		}
		if _, pc, ok := idx.Lookup(rep.Stream[i].CC); ok && int(pc) < progLen {
			det[pc] += n
		}
	}
	return det
}

// Reassemble builds the compacted PTP: instructions in removed (indices
// into p.Prog) are deleted, branch displacements are repaired, the data
// segment is rebuilt with only the surviving SBs' data (relocating their
// address immediates), and the SB/protected metadata is remapped.
func Reassemble(p *stl.PTP, sbs []stl.SB, removed []int) (*stl.PTP, error) {
	n := len(p.Prog)
	rm := make([]bool, n)
	for _, pc := range removed {
		if pc < 0 || pc >= n {
			return nil, fmt.Errorf("core: removed index %d out of range", pc)
		}
		rm[pc] = true
	}

	// newIdx maps old pc -> new pc for survivors; nextIdx maps any old pc
	// (and n) to the next surviving instruction's new index, for branch
	// targets that pointed into removed code.
	newIdx := make([]int, n+1)
	cnt := 0
	for pc := 0; pc < n; pc++ {
		if rm[pc] {
			newIdx[pc] = -1
		} else {
			newIdx[pc] = cnt
			cnt++
		}
	}
	newIdx[n] = cnt
	nextIdx := make([]int, n+1)
	next := cnt
	for pc := n; pc >= 0; pc-- {
		if pc < n && !rm[pc] {
			next = newIdx[pc]
		}
		nextIdx[pc] = next
	}

	comp := &stl.PTP{
		Name:   p.Name,
		Target: p.Target,
		Kernel: p.Kernel,
		Data:   stl.DataSegment{Base: p.Data.Base},
	}

	// Rebuild the data segment from surviving SBs, tracking relocations.
	type reloc struct {
		addrOld int // old instruction index to patch
		newOff  int
	}
	var relocs []reloc
	for _, sb := range sbs {
		if sb.DataLen == 0 || rm[sb.AddrInstr] {
			continue
		}
		newOff := len(comp.Data.Words)
		comp.Data.Words = append(comp.Data.Words,
			p.Data.Words[sb.DataOff:sb.DataOff+sb.DataLen]...)
		relocs = append(relocs, reloc{addrOld: sb.AddrInstr, newOff: newOff})
	}
	relocOf := make(map[int]int, len(relocs))
	for _, r := range relocs {
		relocOf[r.addrOld] = r.newOff
	}

	// Emit surviving instructions with repaired branches and relocated
	// data addresses.
	for pc := 0; pc < n; pc++ {
		if rm[pc] {
			continue
		}
		in := p.Prog[pc]
		switch in.Op {
		case isa.OpBRA, isa.OpSSY, isa.OpCAL:
			oldTgt := pc + 1 + int(in.Imm)
			if oldTgt < 0 {
				oldTgt = 0
			}
			if oldTgt > n {
				oldTgt = n
			}
			var newTgt int
			if oldTgt == n {
				newTgt = cnt
			} else if newIdx[oldTgt] >= 0 {
				newTgt = newIdx[oldTgt]
			} else {
				newTgt = nextIdx[oldTgt]
			}
			in.Imm = int32(newTgt - (newIdx[pc] + 1))
		default:
			if off, ok := relocOf[pc]; ok {
				in.Imm = int32(p.Data.Base + uint32(off)*4)
			}
		}
		comp.Prog = append(comp.Prog, in)
	}

	// Remap SB metadata (SBs with at least one surviving instruction).
	for _, sb := range sbs {
		lastNew := -1
		for pc := sb.End - 1; pc >= sb.Start; pc-- {
			if !rm[pc] {
				lastNew = newIdx[pc]
				break
			}
		}
		if lastNew < 0 {
			continue // fully removed
		}
		ns := stl.SB{Start: nextIdx[sb.Start], End: lastNew + 1, AddrInstr: -1}
		if sb.DataLen > 0 && !rm[sb.AddrInstr] {
			ns.DataOff = relocOf[sb.AddrInstr]
			ns.DataLen = sb.DataLen
			ns.AddrInstr = newIdx[sb.AddrInstr]
		}
		comp.SBs = append(comp.SBs, ns)
	}

	// Remap protected regions.
	for _, r := range p.Protected {
		ns := stl.Region{Start: nextIdx[r.Start], End: newIdx[r.End-1] + 1}
		if ns.End > ns.Start {
			comp.Protected = append(comp.Protected, ns)
		}
	}

	if len(comp.Prog) == 0 {
		return nil, errors.New("core: compaction removed the whole program")
	}
	if err := comp.Validate(); err != nil {
		return nil, fmt.Errorf("core: reassembled PTP invalid: %w", err)
	}
	return comp, nil
}
