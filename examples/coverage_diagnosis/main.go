// Coverage diagnosis: which datapath blocks does a PTP actually test?
// The gate-level modules tag every gate with its functional group
// (multiplier, shifter, comparator, ...), and the fault campaign can
// aggregate coverage per group — the view a test engineer uses to decide
// what the next PTP should target. This example compares the RAND and
// TPGEN programs' group profiles on the SP datapath.
package main

import (
	"context"
	"fmt"
	"log"

	"gpustl"
)

func groupProfile(mod *gpustl.Module, faults []gpustl.Fault, p *gpustl.PTP) []gpustl.GroupCoverage {
	col := gpustl.NewTraceCollector(p.Target)
	col.LiteRows = true
	g, err := gpustl.NewGPU(gpustl.DefaultGPUConfig(), col)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := g.Run(gpustl.Kernel{
		Prog: p.Prog, Blocks: p.Kernel.Blocks,
		ThreadsPerBlock: p.Kernel.ThreadsPerBlock,
		GlobalBase:      p.Data.Base, GlobalData: p.Data.Words,
	}); err != nil {
		log.Fatal(err)
	}
	camp := gpustl.NewFaultCampaign(mod, faults)
	if _, err := camp.SimulateCtx(context.Background(), col.Patterns, gpustl.SimOptions{}); err != nil {
		log.Fatal(err)
	}
	return camp.CoverageByGroup()
}

func main() {
	log.SetFlags(0)

	mod, err := gpustl.BuildModule(gpustl.ModuleSP)
	if err != nil {
		log.Fatal(err)
	}
	faults := gpustl.SampleFaults(mod, 10000, 3)

	rand := gpustl.GenerateRAND(150, 4)

	opt := gpustl.DefaultATPGOptions(5)
	opt.SampleFaults = 2500
	tpgen, _ := gpustl.ConvertTPGEN(gpustl.GenerateATPG(mod, opt), 5)

	randProf := groupProfile(mod, faults, rand)
	tpgenProf := groupProfile(mod, faults, tpgen)

	fmt.Printf("SP datapath coverage by functional group (%d sampled faults)\n\n", len(faults))
	fmt.Printf("%-16s %10s %12s %12s\n", "group", "faults", "RAND", "TPGEN")
	for i, g := range randProf {
		name := g.Group
		if name == "" {
			name = "(ungrouped)"
		}
		fmt.Printf("%-16s %10d %11.2f%% %11.2f%%\n",
			name, g.Total, g.Pct(), tpgenProf[i].Pct())
	}
	fmt.Println("\nThe weak spot jumps out: comparator faults are only observable")
	fmt.Println("while a SET-class operation executes, so both PTPs leave a large")
	fmt.Println("share of them untested — the diagnosis a test engineer turns into")
	fmt.Println("the next PTP (comparison-heavy Small Blocks over all six conditions).")
}
