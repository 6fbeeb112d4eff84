// Decoder-unit STL compaction: reproduces the Table II scenario at demo
// scale. The three DU PTPs (IMM, MEM, CNTRL) are compacted in order on a
// shared fault campaign, so each PTP only keeps instructions that detect
// faults the previous PTPs missed — the paper's fault-dropping mechanism,
// which is why MEM compacts harder than IMM.
package main

import (
	"context"
	"fmt"
	"log"

	"gpustl"
)

func main() {
	log.SetFlags(0)

	mod, err := gpustl.BuildModule(gpustl.ModuleDU)
	if err != nil {
		log.Fatal(err)
	}
	faults := gpustl.SampleFaults(mod, 4000, 7)

	ptps := []*gpustl.PTP{
		gpustl.GenerateIMM(200, 1),
		gpustl.GenerateMEM(200, 2),
		gpustl.GenerateCNTRL(20, 3),
	}

	comp := gpustl.NewCompactor(gpustl.DefaultGPUConfig(), mod, faults,
		gpustl.CompactorOptions{})

	fmt.Println("Decoder Unit STL compaction (IMM -> MEM -> CNTRL, shared fault list)")
	fmt.Printf("%-7s %22s %26s %9s %12s\n", "PTP", "size", "duration (cc)", "Diff FC", "time")
	var totalOrig, totalComp int
	var totalOrigCC, totalCompCC uint64
	stl := gpustl.STL{}
	for _, p := range ptps {
		res, err := comp.CompactPTP(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7s %8d -> %5d (%6.2f%%) %9d -> %8d (%6.2f%%) %+8.2f %12v\n",
			p.Name, res.OrigSize, res.CompSize, -res.SizeReduction(),
			res.OrigDuration, res.CompDuration, -res.DurationReduction(),
			res.FCDiff(), res.CompactionTime)
		totalOrig += res.OrigSize
		totalComp += res.CompSize
		totalOrigCC += res.OrigDuration
		totalCompCC += res.CompDuration
		stl.PTPs = append(stl.PTPs, res.Compacted)
	}
	fmt.Printf("%-7s %8d -> %5d (%6.2f%%) %9d -> %8d (%6.2f%%)\n",
		"total", totalOrig, totalComp,
		-100*(1-float64(totalComp)/float64(totalOrig)),
		totalOrigCC, totalCompCC,
		-100*(1-float64(totalCompCC)/float64(totalOrigCC)))

	// The reassembled STL: combined coverage of the compacted PTPs.
	camp := gpustl.NewFaultCampaign(mod, faults)
	for _, p := range stl.PTPs {
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
		if _, err := camp.SimulateCtx(context.Background(), col.Patterns, gpustl.SimOptions{}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\nreassembled STL combined FC on the Decoder Unit: %.2f%% (%d/%d faults)\n",
		camp.Coverage(), camp.Detected(), camp.Total())
}
