// Package experiments orchestrates the paper's evaluation: it builds the
// STL (the six PTPs of Table I), the target-module fault campaigns, and
// regenerates Table I (PTP features), Table II (Decoder Unit compaction),
// Table III (functional-unit compaction), the whole-STL summary claims,
// and the ablation studies.
//
// Three scales are provided. Small and Medium shrink the PTP sizes and
// sample the fault lists so the suite runs in seconds to minutes on a
// laptop; Paper approaches the instruction counts of the original
// experiments. The *shape* of the results — who compacts most, the effect
// of fault dropping, where FC moves — is preserved across scales.
package experiments

import (
	"fmt"
	"runtime"

	"gpustl/internal/atpg"
	"gpustl/internal/circuits"
	"gpustl/internal/fault"
	"gpustl/internal/gpu"
	"gpustl/internal/ptpgen"
	"gpustl/internal/stl"
	"gpustl/internal/trace"
)

// Scale selects the experiment size.
type Scale int

// Scales.
const (
	Small Scale = iota
	Medium
	Paper
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Paper:
		return "paper"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// ScaleByName parses a scale name.
func ScaleByName(name string) (Scale, error) {
	for s := Small; s <= Paper; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("experiments: unknown scale %q (small|medium|paper)", name)
}

// Params holds all experiment knobs.
type Params struct {
	Scale Scale
	Seed  int64

	// PTP sizes.
	IMMSBs, MEMSBs, RANDSBs int
	CNTRLSections           int

	// Fault-list samples per module (0 = full list).
	DUFaults, SPFaults, SFUFaults int

	// ATPG configuration for TPGEN / SFU_IMM.
	ATPGSPFaults  int // target-fault sample for the SP ATPG (0 = full)
	ATPGSFUFaults int
	ATPGBlocks    int // random blocks budget
	ATPGKeepAll   int // keep-all random blocks (pattern-file redundancy)

	// Workers parallelizes the fault simulations (core.Options.Workers:
	// 0 = GOMAXPROCS, 1 = serial); the tables are identical either way.
	Workers int
}

// ParamsFor returns the default parameters of a scale.
func ParamsFor(s Scale) Params {
	switch s {
	case Small:
		return Params{
			Scale: s, Seed: 1,
			IMMSBs: 40, MEMSBs: 40, RANDSBs: 60, CNTRLSections: 10,
			DUFaults: 3000, SPFaults: 6000, SFUFaults: 4000,
			ATPGSPFaults: 1500, ATPGSFUFaults: 1000, ATPGBlocks: 96,
			ATPGKeepAll: 3,
		}
	case Medium:
		return Params{
			Scale: s, Seed: 1,
			IMMSBs: 250, MEMSBs: 250, RANDSBs: 400, CNTRLSections: 25,
			DUFaults: 0, SPFaults: 24000, SFUFaults: 12000,
			ATPGSPFaults: 6000, ATPGSFUFaults: 3000, ATPGBlocks: 192,
			ATPGKeepAll: 10,
		}
	default: // Paper
		// PTP sizes approach the paper's; the SP/SFU fault lists stay
		// sampled (the full 240k/129k lists against million-pattern
		// streams are a multi-hour serial campaign, as the paper's own
		// compaction-hours column reflects).
		return Params{
			Scale: s, Seed: 1,
			IMMSBs: 2000, MEMSBs: 2000, RANDSBs: 3200, CNTRLSections: 26,
			DUFaults: 0, SPFaults: 48000, SFUFaults: 24000,
			ATPGSPFaults: 24000, ATPGSFUFaults: 12000, ATPGBlocks: 384,
			ATPGKeepAll: 30,
			Workers:     runtime.GOMAXPROCS(0),
		}
	}
}

// Env is the built experiment environment: modules, fault lists, and the
// STL, ready for the table runs.
type Env struct {
	Params Params
	Cfg    gpu.Config

	DU, SP, SFU *circuits.Module

	DUFaults, SPFaults, SFUFaults []fault.Fault

	// The six PTPs of Table I, in the paper's application order.
	IMM, MEM, CNTRL, TPGEN, RAND, SFUIMM *stl.PTP

	// Conversion losses of the ATPG-based PTPs.
	TPGENDropped, SFUIMMDropped int
}

// BuildEnv constructs modules, fault lists, ATPG pattern sets and PTPs.
func BuildEnv(p Params) (*Env, error) {
	env := &Env{Params: p, Cfg: gpu.DefaultConfig()}

	var err error
	if env.DU, err = circuits.Build(circuits.ModuleDU, 0); err != nil {
		return nil, err
	}
	if env.SP, err = circuits.Build(circuits.ModuleSP, 0); err != nil {
		return nil, err
	}
	if env.SFU, err = circuits.Build(circuits.ModuleSFU, 0); err != nil {
		return nil, err
	}

	sample := func(m *circuits.Module, n int, seed int64) []fault.Fault {
		c := fault.NewCampaign(m)
		if n > 0 {
			c.SampleFaults(n, seed)
		}
		return c.Faults()
	}
	env.DUFaults = sample(env.DU, p.DUFaults, p.Seed)
	env.SPFaults = sample(env.SP, p.SPFaults, p.Seed+1)
	env.SFUFaults = sample(env.SFU, p.SFUFaults, p.Seed+2)

	// Pseudorandom PTPs.
	env.IMM = ptpgen.IMM(p.IMMSBs, p.Seed+10)
	env.MEM = ptpgen.MEM(p.MEMSBs, p.Seed+11)
	env.CNTRL = ptpgen.CNTRL(p.CNTRLSections, p.Seed+12)
	env.RAND = ptpgen.RAND(p.RANDSBs, p.Seed+13)

	// ATPG-based PTPs.
	spOpt := atpg.DefaultOptions(p.Seed + 20)
	spOpt.SampleFaults = p.ATPGSPFaults
	spOpt.RandomBlocks = p.ATPGBlocks
	spOpt.KeepAllBlocks = p.ATPGKeepAll
	spRes := atpg.Generate(env.SP, spOpt)
	env.TPGEN, env.TPGENDropped = ptpgen.TPGEN(spRes.Patterns, p.Seed+21)

	sfuOpt := atpg.DefaultOptions(p.Seed + 22)
	sfuOpt.SampleFaults = p.ATPGSFUFaults
	sfuOpt.RandomBlocks = p.ATPGBlocks
	sfuOpt.KeepAllBlocks = p.ATPGKeepAll
	sfuRes := atpg.Generate(env.SFU, sfuOpt)
	env.SFUIMM, env.SFUIMMDropped = ptpgen.SFUIMM(sfuRes.Patterns, p.Seed+23)

	for _, ptp := range env.PTPs() {
		if err := ptp.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
	}
	return env, nil
}

// PTPs returns the six PTPs in the paper's order.
func (e *Env) PTPs() []*stl.PTP {
	return []*stl.PTP{e.IMM, e.MEM, e.CNTRL, e.TPGEN, e.RAND, e.SFUIMM}
}

// ModuleOf returns the module a PTP targets.
func (e *Env) ModuleOf(p *stl.PTP) *circuits.Module {
	switch p.Target {
	case circuits.ModuleDU:
		return e.DU
	case circuits.ModuleSP:
		return e.SP
	default:
		return e.SFU
	}
}

// FaultsOf returns the campaign fault list of a PTP's target module.
func (e *Env) FaultsOf(p *stl.PTP) []fault.Fault {
	switch p.Target {
	case circuits.ModuleDU:
		return e.DUFaults
	case circuits.ModuleSP:
		return e.SPFaults
	default:
		return e.SFUFaults
	}
}

// RunPTP executes a PTP on the simulated GPU with pattern extraction for
// its own target module and returns the collector and total cycles.
func (e *Env) RunPTP(p *stl.PTP) (*trace.Collector, uint64, error) {
	return e.RunPTPAs(p, p.Target)
}

// RunPTPAs executes a PTP extracting patterns for an explicit target
// module (e.g. the pipeline registers, which any fetch stream exercises).
func (e *Env) RunPTPAs(p *stl.PTP, target circuits.ModuleKind) (*trace.Collector, uint64, error) {
	col := trace.NewCollector(target)
	col.LiteRows = true
	g, err := gpu.New(e.Cfg, col)
	if err != nil {
		return nil, 0, err
	}
	res, err := g.Run(gpu.Kernel{
		Prog:            p.Prog,
		Blocks:          p.Kernel.Blocks,
		ThreadsPerBlock: p.Kernel.ThreadsPerBlock,
		GlobalBase:      p.Data.Base,
		GlobalData:      p.Data.Words,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("experiments: running %s: %w", p.Name, err)
	}
	return col, res.Cycles, nil
}

// GroupFC runs the given PTPs in order against one fresh campaign of the
// module's fault list and returns the cumulative coverage — the combined
// FC of the paper's "IMM+MEM+CNTRL" and "TPGEN+RAND" rows.
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
		camp.Simulate(col.Patterns, fault.SimOptions{})
	}
	return camp.Coverage(), nil
}
