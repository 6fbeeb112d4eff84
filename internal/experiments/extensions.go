package experiments

import (
	"fmt"
	"io"

	"gpustl/internal/circuits"
	"gpustl/internal/fault"
	"gpustl/internal/ptpgen"
	"gpustl/internal/report"
)

// ExtensionsResult covers the substrates beyond the paper's evaluation:
// compaction of an FP32-targeted PTP and sequential coverage of the
// pipeline-register bank.
type ExtensionsResult struct {
	// FPRAND compaction on the FP32 unit.
	FP CompactRow
	// Pipeline-register sequential campaign driven by the IMM fetch
	// stream.
	PipeFaults   int
	PipeCoverage float64
	PipeGroups   []fault.GroupCoverage
}

// Extensions runs the two extension studies at a scale derived from the
// environment's parameters.
func Extensions(e *Env) (*ExtensionsResult, error) {
	out := &ExtensionsResult{}

	// FP32 compaction.
	fp, err := circuits.Build(circuits.ModuleFP32, 0)
	if err != nil {
		return nil, err
	}
	fpFaults := fault.NewCampaign(fp)
	sample := e.Params.SPFaults
	if sample == 0 {
		sample = 48000
	}
	fpFaults.SampleFaults(sample, e.Params.Seed+40)
	rep, err := e.compact(fp, fpFaults.Faults(), false,
		ptpgen.FPRAND(e.Params.RANDSBs/2, e.Params.Seed+41))
	if err != nil {
		return nil, err
	}
	out.FP = rowFromOutcome(rep.Outcomes[0])

	// Pipeline registers: sequential campaign over IMM's fetch stream.
	pipe, err := circuits.Build(circuits.ModulePIPE, 0)
	if err != nil {
		return nil, err
	}
	camp, err := fault.NewSeqCampaign(pipe)
	if err != nil {
		return nil, err
	}
	col, _, err := e.RunPTPAs(e.IMM, circuits.ModulePIPE)
	if err != nil {
		return nil, err
	}
	if _, err := camp.Simulate(col.Patterns); err != nil {
		return nil, err
	}
	out.PipeFaults = camp.Total()
	out.PipeCoverage = camp.Coverage()
	out.PipeGroups = camp.CoverageByGroup()
	return out, nil
}

// Render writes the extensions table.
func (x *ExtensionsResult) Render(w io.Writer) {
	tb := report.Table{
		Title:   "EXTENSIONS (beyond the paper's evaluation)",
		Headers: []string{"Study", "Result"},
	}
	tb.AddRow("FP_RAND on FP32 unit",
		fmt.Sprintf("%d->%d instrs (%.2f%%), Diff FC %+.2f",
			x.FP.OrigSize, x.FP.CompSize, x.FP.SizePct, x.FP.DiffFC))
	tb.AddRow("pipeline registers (sequential)",
		fmt.Sprintf("%d stem faults, %.2f%% coverage from the IMM fetch stream",
			x.PipeFaults, x.PipeCoverage))
	for _, g := range x.PipeGroups {
		name := g.Group
		if name == "" {
			name = "(ungrouped)"
		}
		tb.AddRow("  group "+name, fmt.Sprintf("%d/%d (%.2f%%)",
			g.Detected, g.Total, g.Pct()))
	}
	tb.Render(w)
}
