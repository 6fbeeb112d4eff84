package experiments

import (
	"fmt"
	"io"

	"gpustl/internal/circuits"
	"gpustl/internal/fault"
	"gpustl/internal/ptpgen"
	"gpustl/internal/report"
)

// ExtensionsResult covers the study beyond the paper's evaluation:
// compaction of an FP32-targeted PTP.
type ExtensionsResult struct {
	// FPRAND compaction on the FP32 unit.
	FP CompactRow
}

// Extensions runs the extension study at a scale derived from the
// environment's parameters.
func Extensions(e *Env) (*ExtensionsResult, error) {
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
	return &ExtensionsResult{FP: rowFromOutcome(rep.Outcomes[0])}, nil
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
	tb.Render(w)
}
