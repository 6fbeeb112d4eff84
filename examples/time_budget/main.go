// Time-budget compaction: the paper's motivation is that in-field test
// windows are short — "application constraints might limit the available
// execution time". This example uses CompactToBudget, the library's
// extension of the five-stage method, to fit one PTP into progressively
// tighter clock-cycle budgets and shows the coverage/time trade-off curve.
// Each point runs CompactPTP's pipeline with a knapsack as stage 4, so it
// costs what CompactPTP does: one logic simulation of the original, three
// fault simulations (the original's FC, stage 3, the compacted PTP's FC)
// and one logic simulation of the compacted PTP, with no fault
// simulation per candidate selection.
package main

import (
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
	faults := gpustl.SampleFaults(mod, 4000, 5)
	ptp := gpustl.GenerateIMM(200, 5)

	// Reference: the unconstrained five-stage compaction.
	ref, err := gpustl.NewCompactor(gpustl.DefaultGPUConfig(), mod, faults,
		gpustl.CompactorOptions{}).CompactPTP(ptp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PTP %s: %d instructions, %d cc, FC %.2f%%\n",
		ptp.Name, ref.OrigSize, ref.OrigDuration, ref.OrigFC)
	fmt.Printf("unconstrained compaction: %d cc, FC %.2f%%\n\n",
		ref.CompDuration, ref.CompFC)

	fmt.Printf("%-12s %12s %10s %10s\n", "budget", "achieved cc", "instrs", "FC (%)")
	for _, frac := range []float64{1.0, 0.5, 0.25, 0.10, 0.05} {
		budget := uint64(float64(ref.OrigDuration) * frac)
		c := gpustl.NewCompactor(gpustl.DefaultGPUConfig(), mod, faults,
			gpustl.CompactorOptions{})
		res, err := c.CompactToBudget(ptp, budget)
		if err != nil {
			fmt.Printf("%5.0f%% %35v\n", 100*frac, err)
			continue
		}
		fmt.Printf("%5.0f%% %19d %10d %10.2f\n",
			100*frac, res.CompDuration, res.CompSize, res.CompFC)
	}
	fmt.Println("\nThe curve shows the classic test-economics shape: most of the")
	fmt.Println("coverage survives even under a 10% time budget, because a few")
	fmt.Println("Small Blocks detect the bulk of the faults.")
}
