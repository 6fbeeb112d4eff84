package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"gpustl"
	"gpustl/internal/trace"
)

// runnerOptions are stlcompact's defaults: FC tolerance 5 points, two
// retries for crashing PTPs, no checkpoint, no watchdog.
func runnerOptions() gpustl.RunnerOptions {
	return gpustl.RunnerOptions{FCTolerance: 5, MaxPTPRetries: 2}
}

// libBench runs whole campaigns in process through
// CompactWholeSTLResilient with serial fault simulation (the CLI
// default), the way stlcompact does.
type libBench struct {
	cfg  gpustl.GPUConfig
	kind gpustl.ModuleKind
	ms   *gpustl.ModuleSet
	lib  *gpustl.STL
	ref  [32]byte // digest of the cold campaign's report and artifact
}

// newDULib builds the DU library: IMM and MEM at n=1500 plus CNTRL with
// 150 sections, against the module's full fault list.
func newDULib(ctx context.Context, seed int64) (*libBench, error) {
	mod, err := gpustl.BuildModule(gpustl.ModuleDU)
	if err != nil {
		return nil, err
	}
	lib := &gpustl.STL{PTPs: []*gpustl.PTP{
		gpustl.GenerateIMM(1500, seed+1),
		gpustl.GenerateMEM(1500, seed+2),
		gpustl.GenerateCNTRL(150, seed+3),
	}}
	return newLibBench(ctx, mod, gpustl.AllFaults(mod), lib)
}

// atpgSeed seeds the SP libraries' ATPG run, as stlcompact -seed 1
// does. It is fixed: the TPGEN program's pattern count sets most of an
// SP campaign's cost, so every workload seed gets the same TPGEN and
// the seed varies the RAND programs instead.
const atpgSeed = 1 + 4

// spTPGEN generates the SP library's ATPG-derived TPGEN program (the
// costly part of its set-up) from an ATPG run over 1200 sampled faults.
func spTPGEN(mod *gpustl.Module) *gpustl.PTP {
	opt := gpustl.DefaultATPGOptions(atpgSeed)
	opt.SampleFaults = 1200
	tpgen, _ := gpustl.ConvertTPGEN(gpustl.GenerateATPG(mod, opt), atpgSeed)
	return tpgen
}

// newSPLib builds the SP library: TPGEN from ATPG plus RAND at n=120,
// against a 4,000-fault sample drawn with seed 1, as the server draws
// it for inline libraries.
func newSPLib(ctx context.Context, seed int64) (*libBench, error) {
	mod, err := gpustl.BuildModule(gpustl.ModuleSP)
	if err != nil {
		return nil, err
	}
	lib := &gpustl.STL{PTPs: []*gpustl.PTP{spTPGEN(mod), gpustl.GenerateRAND(120, seed+5)}}
	return newLibBench(ctx, mod, gpustl.SampleFaults(mod, 4000, 1), lib)
}

// newLibBench runs the cold campaign, whose digest every timed campaign
// must reproduce.
func newLibBench(ctx context.Context, mod *gpustl.Module, faults []gpustl.Fault, lib *gpustl.STL) (*libBench, error) {
	b := &libBench{
		cfg:  gpustl.DefaultGPUConfig(),
		kind: mod.Kind,
		ms: &gpustl.ModuleSet{
			Modules: map[gpustl.ModuleKind]*gpustl.Module{mod.Kind: mod},
			Faults:  map[gpustl.ModuleKind][]gpustl.Fault{mod.Kind: faults},
		},
		lib: lib,
	}
	rep, err := gpustl.CompactWholeSTLResilient(ctx, b.cfg, b.ms, b.lib, gpustl.CompactorOptions{}, runnerOptions())
	if err != nil {
		return nil, fmt.Errorf("cold campaign: %w", err)
	}
	if err := settled(rep); err != nil {
		return nil, fmt.Errorf("cold campaign: %w", err)
	}
	if b.ref, err = digest(rep); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *libBench) campaign(ctx context.Context, i int, rec *recorder) (campaignResult, error) {
	copt := gpustl.CompactorOptions{}
	ropt := runnerOptions()
	p := newProbe(rec, i, "campaign")
	if p != nil {
		ref := &probeRef{}
		ref.Store(p)
		copt.Simulator = simProbe{ref: ref}
		ropt.StageHook = p.onStage
		ropt.OnOutcome = func(gpustl.RunOutcome, int, int) { p.endStage() }
	}
	start := time.Now()
	rep, err := gpustl.CompactWholeSTLResilient(ctx, b.cfg, b.ms, b.lib, copt, ropt)
	wall := time.Since(start)
	p.finish()
	if err != nil {
		return campaignResult{}, err
	}
	res := campaignResult{wall: wall, probe: p, orig: b.lib.PTPs, kind: b.kind}
	for _, o := range rep.Outcomes {
		res.cycles += o.OrigDuration + o.CompDuration
	}
	res.verify = func() ([]*gpustl.PTP, error) {
		if err := settled(rep); err != nil {
			return nil, err
		}
		got, err := digest(rep)
		if err != nil {
			return nil, err
		}
		if got != b.ref {
			return nil, fmt.Errorf("report/artifact digest %x differs from the cold campaign's %x", got[:8], b.ref[:8])
		}
		return rep.Compacted.PTPs, nil
	}
	return res, nil
}

func (b *libBench) close() error { return nil }

// settled rejects a report with errored or quarantined PTPs: those are
// degraded campaigns, not verified ones.
func settled(rep *gpustl.RunReport) error {
	for _, o := range rep.Outcomes {
		if o.Status == gpustl.RunRevertedError || o.Status == gpustl.RunQuarantined {
			return fmt.Errorf("PTP %s %s: %s", o.Name, o.Status, o.Err)
		}
	}
	return nil
}

// digest hashes the rendered report plus the compacted library.
func digest(rep *gpustl.RunReport) ([32]byte, error) {
	var buf bytes.Buffer
	rep.Render(&buf)
	if err := gpustl.WriteSTL(&buf, rep.Compacted); err != nil {
		return [32]byte{}, fmt.Errorf("encoding compacted STL: %w", err)
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// replayStats measures the logic simulator and the trace collector
// from outside: every program is run bare and with a collector.
type replayStats struct {
	bare, collected time.Duration
	instructions    uint64
	cycles          uint64
	patterns        int
}

// replay runs the original programs with a full collector and the
// final ones with a pattern-only collector, as core's trace and
// evaluate stages do.
func replay(ctx context.Context, cfg gpustl.GPUConfig, kind gpustl.ModuleKind, orig, final []*gpustl.PTP) (replayStats, error) {
	var st replayStats
	for i, set := range [][]*gpustl.PTP{orig, final} {
		for _, p := range set {
			if p.Target != kind {
				continue
			}
			k := gpustl.Kernel{
				Prog:            p.Prog,
				Blocks:          p.Kernel.Blocks,
				ThreadsPerBlock: p.Kernel.ThreadsPerBlock,
				GlobalBase:      p.Data.Base,
				GlobalData:      p.Data.Words,
			}
			g, err := gpustl.NewGPU(cfg, nil)
			if err != nil {
				return st, err
			}
			start := time.Now()
			res, err := g.RunCtx(ctx, k)
			st.bare += time.Since(start)
			if err != nil {
				return st, fmt.Errorf("replaying %s: %w", p.Name, err)
			}
			st.instructions += res.Instructions
			st.cycles += res.Cycles

			col := trace.NewCollector(kind)
			col.LiteRows = i == 1
			if g, err = gpustl.NewGPU(cfg, col); err != nil {
				return st, err
			}
			start = time.Now()
			_, err = g.RunCtx(ctx, k)
			st.collected += time.Since(start)
			if err != nil {
				return st, fmt.Errorf("replaying %s with the collector: %w", p.Name, err)
			}
			st.patterns += len(col.Patterns)
		}
	}
	return st, nil
}
