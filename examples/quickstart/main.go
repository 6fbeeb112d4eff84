// Quickstart: generate one Decoder Unit test program, compact it with the
// five-stage method, and print what happened — the smallest end-to-end use
// of the library.
package main

import (
	"fmt"
	"log"

	"gpustl"
)

func main() {
	log.SetFlags(0)

	// 1. Build the gate-level model of the target module (the instruction
	//    Decoder Unit of the FlexGripPlus-like GPU).
	mod, err := gpustl.BuildModule(gpustl.ModuleDU)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Decoder Unit: %d gates, %d inputs, %d outputs\n",
		mod.NL.NumGates(), len(mod.NL.Inputs), len(mod.NL.Outputs))

	// 2. Enumerate its stuck-at faults (sampled here to keep the demo
	//    fast; pass AllFaults(mod) for the full campaign).
	faults := gpustl.SampleFaults(mod, 3000, 42)
	fmt.Printf("fault list: %d stuck-at faults\n", len(faults))

	// 3. Generate a pseudorandom test program in the style of the paper's
	//    IMM PTP: 150 Small Blocks of immediate-format instructions, each
	//    folding its results into a per-thread signature.
	ptp := gpustl.GenerateIMM(150, 42)
	fmt.Printf("PTP %s: %d instructions, %d Small Blocks, ARC %.1f%%\n",
		ptp.Name, len(ptp.Prog), len(ptp.SBs), 100*ptp.ARCFraction())

	// 4. Compact it: one logic simulation + one fault simulation.
	comp := gpustl.NewCompactor(gpustl.DefaultGPUConfig(), mod, faults,
		gpustl.CompactorOptions{})
	res, err := comp.CompactPTP(ptp)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ncompaction (took %v):\n", res.CompactionTime)
	fmt.Printf("  size:     %6d -> %6d instructions (-%.2f%%)\n",
		res.OrigSize, res.CompSize, res.SizeReduction())
	fmt.Printf("  duration: %6d -> %6d clock cycles (-%.2f%%)\n",
		res.OrigDuration, res.CompDuration, res.DurationReduction())
	fmt.Printf("  FC:       %6.2f%% -> %6.2f%% (diff %+.2f)\n",
		res.OrigFC, res.CompFC, res.FCDiff())
	fmt.Printf("  Small Blocks removed: %d of %d\n", res.RemovedSBs, res.TotalSBs)

	// 5. The compacted PTP is a complete, runnable program.
	g, err := gpustl.NewGPU(gpustl.DefaultGPUConfig(), nil)
	if err != nil {
		log.Fatal(err)
	}
	out, err := g.Run(gpustl.Kernel{
		Prog:            res.Compacted.Prog,
		Blocks:          res.Compacted.Kernel.Blocks,
		ThreadsPerBlock: res.Compacted.Kernel.ThreadsPerBlock,
		GlobalBase:      res.Compacted.Data.Base,
		GlobalData:      res.Compacted.Data.Words,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncompacted PTP re-ran in %d cc; thread-0 signature: %#08x\n",
		out.Cycles, out.Global.Word(0x10000/4))
}
